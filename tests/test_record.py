"""The value records keep the semantics of the frozen dataclasses they replaced.

The old definitions are kept below verbatim (their fields, defaults and the
methods the decorator respects; the other methods leave `==`, `hash`, `repr`
and `replace` alone and are left out) as the oracle.  Each check takes the
records of a real `walls` and `consistency` run on A_2^(1), builds the
reference instance with the same field values, and compares.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import pytest

from affscat import almost_positive, cartan, cli, cones, coxeter, scattering, series, shards, weyl
from affscat.linalg import Vec
from affscat.record import Record

SRC = Path(__file__).resolve().parent.parent / "src"


# -- the old definitions ----------------------------------------------------------


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetrizable integer matrix B = [b_ij]."""

    n: int
    b: tuple


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetrizable generalized Cartan matrix with fixed symmetrizers d.

    d follows the convention d_i a_ij = d_j a_ji with every d_i^{-1} a positive
    integer and gcd(d_i^{-1}) = 1.
    """

    n: int
    a: tuple
    d: tuple


@dataclass(frozen=True)
class TypeInfo:
    """Result of classifying a Cartan matrix: finite, affine, or indefinite."""

    kind: str  # "finite" | "affine" | "indefinite"
    label: str | None = None
    delta: Vec | None = None
    aff_index: int | None = None  # 0-based
    is_a2k2: bool = False


@dataclass(frozen=True)
class CoxeterContext:
    cartan: CartanMatrix
    order: tuple  # 0-based index order; c = s_{order[0]} ... s_{order[-1]}


@dataclass(frozen=True)
class AffineVectors:
    x_c: Vec  # -omega_c(. , delta) in rho coordinates
    h: Vec  # primitive integers, a positive multiple of omega_c(., delta); kernel is H_c


@dataclass(frozen=True)
class Cone:
    dim_ambient: int
    eqs: tuple  # integer covectors e with <x, e> = 0
    ineqs: tuple  # integer covectors g with <x, g> <= 0


@dataclass(frozen=True)
class TruncatedSeries:
    """Series sum_m coeffs[m] q^m with q = yhat^normal, truncated at q-degree k."""

    normal: tuple
    k: int
    coeffs: tuple


@dataclass(frozen=True)
class CrossingData:
    """Everything wall_cross needs about one wall: the scattering term, the
    primitive-normal data, and the exchange matrix pairing.  Its crossing
    kernel at each (sign, truncation) is prepared on first use and kept."""

    f: TruncatedSeries
    coroot: tuple  # crossing normal, alpha^vee coordinates, primitive in Q^vee
    b_rows: tuple  # exchange matrix, for omega(alpha_i^vee, alpha_j) = b_ij
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ShardCone:
    normal: tuple  # positive root beta
    cut_list: tuple  # roots gamma with <x, gamma> <= 0 on the shard
    cone: Cone


@dataclass(frozen=True)
class Wall:
    normal: tuple  # primitive positive root in Q
    cone: Cone
    ineq_roots: tuple  # root-lattice functionals phi with <x, phi> <= 0 on the cone
    f: TruncatedSeries
    origin: str


@dataclass(frozen=True)
class ScatDiagram:
    cartan_n: int
    walls: tuple
    height_cap: int
    truncation: int
    provenance: dict = field(compare=False, default_factory=dict)


@dataclass
class LoopCrossing:
    wall: Wall
    direction: tuple  # (a, b) coordinates in the transverse plane
    sign: int  # +1 crossing against the normal, -1 with it


@dataclass(frozen=True)
class TubeStructure:
    xi: tuple  # the tube generators: extreme rays of the cone on the tube roots
    cycles: tuple  # the c-orbits of xi, as xi indices in the order c moves them
    supp: dict  # each proper arc -> its xi-support, a frozenset of xi indices
    apt_real: tuple  # APT_c, the real tube roots: the proper arcs, sorted


@dataclass(frozen=True)
class GroupElement:
    word: tuple
    inversions: frozenset
    matrix: tuple  # action on V in alpha coordinates, columns are images of simples

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.inversions == other.inversions

    def __hash__(self):
        return hash(self.inversions)


REFERENCE = {
    cartan.ExchangeMatrix: ExchangeMatrix,
    cartan.CartanMatrix: CartanMatrix,
    cartan.TypeInfo: TypeInfo,
    coxeter.CoxeterContext: CoxeterContext,
    coxeter.AffineVectors: AffineVectors,
    cones.Cone: Cone,
    series.TruncatedSeries: TruncatedSeries,
    series.CrossingData: CrossingData,
    shards.ShardCone: ShardCone,
    scattering.Wall: Wall,
    scattering.ScatDiagram: ScatDiagram,
    scattering.LoopCrossing: LoopCrossing,
    almost_positive.TubeStructure: TubeStructure,
    weyl.GroupElement: GroupElement,
}
MUTABLE = {scattering.LoopCrossing}


# -- the records of one walls and one consistency run ------------------------------


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict:
    """Record class -> up to 12 distinct instances from `walls` and
    `consistency` at H = k = 4 on two orientations of A_2^(1), taken off
    the arguments and results of the stages and of the helpers that build
    the loop records."""
    folder = tmp_path_factory.mktemp("a21")
    seen: list = []

    def spy(fn):
        def wrapper(*args):
            result = fn(*args)
            seen.extend(args)
            seen.append(result)
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for mod, name in (
            (cli, "build_dcscat"),
            (cli, "build_easy_scat"),
            (cli, "check_consistency"),
            (scattering, "_crossing_data"),
        ):
            mp.setattr(mod, name, spy(getattr(mod, name)))
        loops = scattering.loop_crossings

        def crossings(*args):
            events = loops(*args)
            seen.extend(events)
            return events

        mp.setattr(scattering, "loop_crossings", crossings)
        for sign in (1, -1):
            path = folder / f"a21-{sign}.json"
            rows = [[0, sign, sign], [-sign, 0, sign], [-sign, -sign, 0]]
            path.write_text(json.dumps({"n": 3, "b": rows}))
            for stage in ("walls", "consistency"):
                argv = [stage, "--input", str(path), "--H", "4", "--k", "4"]
                assert cli.run(argv + ["--out", str(folder / f"{stage}.json")]) == 0

    found = []
    for bmat in [x for x in seen if isinstance(x, cartan.ExchangeMatrix)]:
        cox = coxeter.coxeter_context(bmat)
        found += [bmat, cox, cox.cartan, cox.type_info, cox.affine, cox.ap.tube]
        found += cox.shards._shard_cache.values()
        # The sortables of a walls run are stored lean, so the GroupElements
        # come from the run's Cartan matrix.
        found += islice(weyl.enumerate_up_to_length(weyl.WeylContext(cox.cartan), 2), 6)
    diagrams = [x for x in seen if isinstance(x, scattering.ScatDiagram)]
    walls = [w for d in diagrams for w in d.walls]
    found += diagrams + walls + [w.cone for w in walls] + [w.f for w in walls]
    found += [x for x in seen if isinstance(x, (series.CrossingData, scattering.LoopCrossing))]
    found.append(cartan.TypeInfo("finite"))
    out: dict = {cls: [] for cls in REFERENCE}
    for x in found:
        group = out[type(x)]
        if len(group) < 12 and not any(x is y for y in group):
            group.append(x)
    return out


def _fields(x) -> dict:
    return {name: getattr(x, name) for name in x._fields}


def _ref(x):
    return REFERENCE[type(x)](**_fields(x))


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:
        return TypeError, str(exc)


def test_records_cover_every_class(records):
    assert all(len(group) >= 2 for group in records.values())


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda c: c.__name__)
def test_fields_are_the_reference_constructor_arguments(cls):
    ref_fields = tuple(f.name for f in dataclasses.fields(REFERENCE[cls]) if f.init)
    assert cls._fields == ref_fields
    assert issubclass(cls, Record)


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_reference(records, cls):
    group = records[cls]
    twin, ref_twin = type("Twin", (cls,), {}), type("Twin", (REFERENCE[cls],), {})
    for x in group:
        assert repr(x) == repr(_ref(x))
        assert _hash(x) == _hash(_ref(x))
        # a record never equals an instance of another class, even one
        # with the same fields
        assert x != _ref(x) and _ref(x) != x
        assert not (x == _ref(x))
        # an instance of a subclass is equal exactly when it is for the
        # reference (only GroupElement's own __eq__ accepts subclasses)
        assert (x == twin(**_fields(x))) is (_ref(x) == ref_twin(**_fields(x)))
        for y in group:
            assert (x == y) is (_ref(x) == _ref(y))
            assert (x != y) is (_ref(x) != _ref(y))


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda c: c.__name__)
def test_assigning_a_field_raises_unless_the_reference_is_mutable(records, cls):
    x = records[cls][0]
    name = cls._fields[0]
    value = getattr(x, name)
    if cls in MUTABLE:
        ref = _ref(x)
        setattr(ref, name, None)
        setattr(x, name, None)
        assert getattr(x, name) is None and repr(x) == repr(ref)
        object.__setattr__(x, name, value)
        return
    with pytest.raises(AttributeError):
        setattr(_ref(x), name, value)
    with pytest.raises(AttributeError):
        setattr(x, name, value)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) is value


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda c: c.__name__)
def test_replace_matches_dataclasses_replace(records, cls):
    first, second = records[cls][:2]
    for name in cls._fields:
        change = {name: getattr(second, name)}
        new = first.replace(**change)
        ref = dataclasses.replace(_ref(first), **change)
        assert type(new) is cls and repr(new) == repr(ref)
        assert _ref(new) == ref
        assert all(getattr(new, f) is getattr(ref, f) for f in cls._fields)
    with pytest.raises(TypeError):
        first.replace(no_such_field=1)


def test_uncompared_state_stays_out_of_eq_hash_and_repr(records):
    diagram = records[scattering.ScatDiagram][0]
    other = diagram.replace(provenance={"construction": "elsewhere"})
    assert other == diagram and hash(other) == hash(diagram)
    data = records[series.CrossingData][0]
    twin = series.CrossingData(data.f, data.coroot, data.b_rows)
    assert twin._kernels == {} and twin._kernels is not data._kernels
    assert twin == data and hash(twin) == hash(data) and repr(twin) == repr(data)
    assert "_kernels" not in repr(data)


def test_cached_properties_and_caches_still_work(records):
    cox = records[coxeter.CoxeterContext][0]
    assert vars(cox)["shards"] is cox.shards and vars(cox)["type_info"] is cox.type_info
    bmat = records[cartan.ExchangeMatrix][0]
    assert vars(bmat)["coxeter_context"] is cox
    cone = cones.Cone(2, (), ((-1, 0), (0, -1)))
    assert isinstance(vars(cones.Cone)["generators"], functools.cached_property)
    assert sorted(cone.rays) == [(0, 1), (1, 0)] and vars(cone)["generators"] is cone.generators


def test_no_record_method_reads_the_instance_dict():
    # Reading or writing self.__dict__ moves the attributes out of their
    # inline storage, which slows every later attribute read.
    for cls in (Record, *REFERENCE):
        for name in ("__init__", "__eq__", "__hash__", "__repr__", "_key"):
            method = vars(cls).get(name)
            if callable(method):
                assert "__dict__" not in inspect.getsource(method), (cls.__name__, name)


def test_import_leaves_dataclasses_and_inspect_out():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import affscat; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    # -S: no site module, so nothing but the import itself loads modules
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
