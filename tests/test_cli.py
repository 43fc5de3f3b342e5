import json

import pytest

from affscat.cli import run


@pytest.fixture
def b_a22(tmp_path):
    path = tmp_path / "a22.json"
    path.write_text(json.dumps({"n": 2, "b": [[0, 1], [-4, 0]]}))
    return str(path)


@pytest.fixture
def b_a11(tmp_path):
    path = tmp_path / "a11.json"
    path.write_text(json.dumps({"n": 2, "b": [[0, 2], [-2, 0]]}))
    return str(path)


@pytest.fixture
def b_a2t(tmp_path):
    path = tmp_path / "a2t.json"
    path.write_text(
        json.dumps({"n": 3, "b": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]})
    )
    return str(path)


def test_classify_a22(b_a22, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["classify", "--input", b_a22, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["type"] == "affine"
    assert data["label"] == "A_2^(2)"
    assert data["is_A2k2"] is True


def test_rank2_kronecker(b_a11, tmp_path):
    out = tmp_path / "out.json"
    assert run(["rank2", "--input", b_a11, "--k", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["limiting"] == ["1", "2", "3", "4", "5", "6", "7"]


def test_consistency_exit_zero(b_a11, tmp_path):
    out = tmp_path / "out.json"
    code = run(
        ["consistency", "--input", b_a11, "--H", "5", "--k", "5", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["consistent"]


def test_consistency_codim2_repro(tmp_path, capsys):
    path = tmp_path / "a31.json"
    path.write_text(
        json.dumps({"n": 4, "b": [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]]})
    )
    out = tmp_path / "out.json"
    assert run(["consistency", "--input", str(path), "--H", "4", "--k", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["consistent"] is True


def test_walls_equal(b_a11, tmp_path):
    out = tmp_path / "out.json"
    assert run(["walls", "--input", b_a11, "--H", "4", "--k", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["equal"] is True
    normals = {tuple(w["normal"]) for w in data["dcscat"]["walls"]}
    assert (1, 1) in normals


def test_clusters_output(b_a11, tmp_path):
    out = tmp_path / "out.json"
    assert run(["clusters", "--input", b_a11, "--H", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [[-1, 0], [0, -1]] in data["real_clusters"]
    assert data["imaginary_clusters"] == [[[1, 1]]]


def test_compare_small(b_a11, tmp_path):
    out = tmp_path / "out.json"
    code = run(
        [
            "compare", "--input", b_a11, "--H", "4", "--k", "4",
            "--L", "4", "--samples", "20", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["clean"] is True


def test_compare_frontier_pair_is_censored(b_a2t, tmp_path):
    # At seed 122 one sampled point lies on the hyperplane of the height-7
    # root (3,2,2), beyond the height cap: a frontier effect, not a
    # disagreement.
    out = tmp_path / "out.json"
    code = run(
        [
            "compare", "--input", b_a2t, "--H", "6", "--k", "6",
            "--L", "6", "--samples", "200", "--seed", "122", "--out", str(out),
        ]
    )
    report = json.loads(out.read_text())
    assert code == 0
    assert report["clean"] is True
    assert report["pair_disagreements"] == []
    assert report["pair_frontier_censored"] == 1


def test_svg_rank2(b_a11, tmp_path):
    out = tmp_path / "d.svg"
    assert run(["svg", "--input", b_a11, "--H", "4", "--k", "4", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "imaginary" in text
    # 5 walls at H=4: each initial line plus three rays, all labeled
    assert text.count("<text") >= 5


def test_svg_rank3(b_a2t, tmp_path):
    out = tmp_path / "d.svg"
    assert run(["svg", "--input", b_a2t, "--H", "4", "--k", "4", "--out", str(out)]) == 0
    assert "<svg" in out.read_text()


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 2, "b": [[0, 1], [1, 0]]},
        {"n": 2, "b": [[0, 2.9], [-2, 0]]},
        {"n": 2, "b": [[0, True], [-1, 0]]},
        {"n": 2, "b": [[0, "2"], [-2, 0]]},
        {"n": "2", "b": [[0, 2], [-2, 0]]},
        {"n": True, "b": [[0]]},
        {"n": 2.0, "b": [[0, 2], [-2, 0]]},
        {"n": 2, "b": 5},
        {"n": 2, "b": None},
        {"n": 2, "b": [0, 1]},
        {"n": 2, "b": [[0, 2], None]},
        {"n": 2},
        [[0, 2], [-2, 0]],
    ],
    ids=[
        "not_skew", "float_entry", "bool_entry", "str_entry", "str_n", "bool_n",
        "float_n", "int_b", "null_b", "flat_b", "null_row", "missing_b", "not_object",
    ],
)
def test_invalid_input_exit_2(payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run(["classify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err)


def test_internal_error_exit_3(b_a11, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("boom")

    monkeypatch.setattr("affscat.cli.check_consistency", broken)
    assert run(["consistency", "--input", b_a11, "--H", "3", "--k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["internal"] is True
    assert "boom" in err["error"]


def test_missing_file_exit_2(tmp_path):
    assert run(["classify", "--input", str(tmp_path / "nope.json")]) == 2


def test_finite_type_rejected_for_walls(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"n": 2, "b": [[0, 1], [-1, 0]]}))
    assert run(["walls", "--input", str(path)]) == 2


def test_byte_identical_reruns(b_a11, tmp_path):
    out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
    argv = ["compare", "--input", b_a11, "--H", "4", "--k", "4", "--L", "4",
            "--samples", "10", "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_svg_empty_diagram_axes_only():
    from affscat.scattering import ScatDiagram
    from affscat.svg import render_slice

    empty = ScatDiagram(cartan_n=2, walls=(), height_cap=0, truncation=0)
    text = render_slice(empty)
    assert text.count('class="axis"') == 2
    assert 'class="wall"' not in text


def test_svg_unsupported_rank():
    import pytest

    from affscat.scattering import ScatDiagram
    from affscat.svg import UnsupportedRank, render_slice

    with pytest.raises(UnsupportedRank):
        render_slice(ScatDiagram(cartan_n=4, walls=(), height_cap=0, truncation=0))


def test_svg_g21_uses_symmetrizers(tmp_path):
    # G_2^(1) is not simply laced: the slice <x, delta> = 1 depends on d.
    from affscat.cartan import CartanMatrix, ExchangeMatrix, exchange_to_cartan
    from affscat.scattering import build_dcscat
    from affscat.svg import render_slice

    rows = [[0, 1, 0], [-1, 0, 1], [0, -3, 0]]
    path = tmp_path / "g21.json"
    path.write_text(json.dumps({"n": 3, "b": rows}))
    out = tmp_path / "d.svg"
    assert run(["svg", "--input", str(path), "--H", "4", "--k", "4", "--out", str(out)]) == 0
    bmat = ExchangeMatrix.from_rows(rows)
    cartan = exchange_to_cartan(bmat)
    diagram = build_dcscat(bmat, 4, 4)
    assert render_slice(diagram, cartan) == out.read_text()
    unit_d = CartanMatrix(cartan.n, cartan.a, (1, 1, 1))
    assert render_slice(diagram, unit_d) != out.read_text()
    with pytest.raises(ValueError):
        render_slice(diagram)


def test_element_cap_exit_3_names_affscat_cap(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a31.json"
    path.write_text(
        json.dumps({"n": 4, "b": [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]]})
    )
    monkeypatch.setenv("AFFSCAT_CAP", "50")
    assert run(["walls", "--input", str(path), "--H", "12", "--k", "12"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "AFFSCAT_CAP=50" in err["error"]


def test_probe_cap_exit_3_names_affscat_cap_and_l(b_a2t, monkeypatch, capsys):
    # A cap of 100 admits every sortable element at H=4 (20 of length <= 8
    # for c, and 20 for c^-1) but not the 3 (2^8 - 1) words that an
    # indistinct pair costs the mutation probe at --L 8.
    monkeypatch.setenv("AFFSCAT_CAP", "100")
    argv = ["compare", "--input", b_a2t, "--H", "4", "--k", "4",
            "--L", "8", "--samples", "20", "--seed", "3"]
    assert run(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert "AFFSCAT_CAP=100" in err["error"] and "--L 8" in err["error"]


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
def test_malformed_element_cap_exit_2_names_affscat_cap(b_a11, monkeypatch, capsys, value):
    monkeypatch.setenv("AFFSCAT_CAP", value)
    assert run(["walls", "--input", b_a11]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "AFFSCAT_CAP" in err["error"] and repr(value) in err["error"]
    assert "internal" not in err


def test_classify_reports_cartan_data(b_a22, tmp_path):
    out = tmp_path / "out.json"
    assert run(["classify", "--input", b_a22, "--H", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cartan"]["a"] == [[2, -1], [-4, 2]]
    assert data["cartan"]["d"] == ["1", "1/4"]
    assert [1, 0] in data["positive_real_roots"]


# sha256 of the --out bytes of small CLI runs on every command that writes a
# diagram, a report or a fan.  Refactors must leave these bytes unchanged; a
# deliberate change of the mathematics or the serialization updates them.
MATRICES = {
    "A1_1": [[0, 2], [-2, 0]],
    "A2_2": [[0, 1], [-4, 0]],
    "A2_1": [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
    "G2_1": [[0, 1, 0], [-1, 0, 1], [0, -3, 0]],
    "A3_1": [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, -1], [-1, 0, 1, 0]],
    "D4_1": [[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0]] * 4,  # the star, vertex 0 a source
    "Zero2": [[0, 0], [0, 0]],  # no rays: the two lines alone
}
HK4 = ["--H", "4", "--k", "4"]
COMPARE = HK4 + ["--L", "4", "--samples", "20", "--seed", "3"]
PINNED_OUTPUTS = [
    ("A1_1", "walls", HK4, "af18fc21141dfcd337a2f725de2632d37c35ce353ae8412fbe423eaa0a6c9044"),
    ("A1_1", "consistency", HK4, "5bf88323513b673bdc3225c8751c04277b01a76a2b345bbbb97c4b7c8b593946"),
    ("A1_1", "clusters", HK4, "e700164470e2c8fedd3a83d60a208dc1b675e061619df2b7561bf62ff3393887"),
    ("A1_1", "compare", COMPARE, "4f3e55ce80c0948f8d13157acd48185b25c7436c0af0da60cdc22c771134d1c5"),
    ("A1_1", "rank2", ["--k", "4"], "4f65e1792f2d49ce59e8a07b869d64c70c7e2874e916298c2080887528adf337"),
    ("A1_1", "rank2", ["--k", "8"], "d9682a3272f98796e58fb9e37e7238c4e8011cd4c8bb49b27fa7526fb281cee1"),
    ("A1_1", "rank2", ["--k", "16"], "29659ac0b0bab60e412be6b279a01f1cf04c95edc934868b108eac9b0dc819e0"),
    ("A2_2", "walls", HK4, "ba6eaf7c2e7c89667382bb22b119be39c9779538004a9d36b27a73d952ac781e"),
    ("A2_2", "consistency", HK4, "5bf88323513b673bdc3225c8751c04277b01a76a2b345bbbb97c4b7c8b593946"),
    ("A2_2", "clusters", HK4, "64030a3a8d6082db4a0714e4f2c023c15957b689f9c22612bb7d2cfb889f3a0a"),
    ("A2_2", "compare", COMPARE, "dcdb3913e1bd9a140d827794386b2618ac964adaf180943a42e6a462132352f1"),
    ("A2_2", "rank2", ["--k", "4"], "09b71edfa0cf2354f69093b108ff8fed8387b08a1a49b7affce56afad974c1a6"),
    ("A2_2", "rank2", ["--k", "6"], "ef30641df362ff7d9bdaf39f72eaf75fe3d3934f7a7ce7c7901fa51974edfe6b"),
    ("A2_2", "rank2", ["--k", "10"], "7da2b28f9df7d950875d106368df0fc666ce24428ee357de1f694941cacc72a4"),
    ("A2_1", "walls", HK4, "481516714aec486767cc4530d8213786372544f86cfe3326842df64cfd8a96e5"),
    ("A2_1", "consistency", HK4, "c6dede802f6319cb1d2576a76462e1906e9bdd3fbd74603324d583a28439a2c5"),
    ("A2_1", "clusters", HK4, "09b809fb6bc9823329f175aa9b9c9a986b286bfe4f9bb745c4fffb95742b5a40"),
    ("A2_1", "compare", COMPARE, "da505cb78bef379b0ab4ee5f06a814b8461dcbfade9956ee2329e7ebe7aa3195"),
    ("G2_1", "consistency", HK4, "c6dede802f6319cb1d2576a76462e1906e9bdd3fbd74603324d583a28439a2c5"),
    ("G2_1", "compare", COMPARE, "4b91d5499fe15e163c0dc0729ab8b2fd13123cb2ae1e82af7d357a4f70e64f24"),
    ("G2_1", "clusters", ["--H", "6"], "460f158cb99289b7c6362eb108d0f79ac86e7bcc1e7f16a9ef14366f432859ef"),
    ("A3_1", "clusters", ["--H", "4"], "77ecdc4dbf0fba81956c8ebb9d2d5384a6e81a231360eaa541dd22e90d79daf5"),
    ("D4_1", "clusters", ["--H", "4"], "aefbbd8b4d55e82fbd110ca248355f8a58b73268212e03fdef2d608c36505503"),
    ("D4_1", "consistency", HK4, "0ee5647af7b0ce0aa2cc965d73cc07c436b39598c46a15920adb1b81a58b788e"),
    ("A3_1", "consistency", ["--H", "6", "--k", "6"], "a45e2f1655614027512427a22d08dbff45b6d3ce429f5f651a0318b92d5761d2"),
    ("A3_1", "walls", ["--H", "8", "--k", "8"], "512f96d2a03242b7d20656d86c26a158903aae0a6047a6443bdc974081fb67f9"),
    ("Zero2", "rank2", ["--k", "3"], "12550dba19a42053b19bba81c8e820197f9a61ec32a9906e0cae2d61bb58713c"),
]




def _pin_ids(rows):
    """`name-command`; a repeated pair also names its flags, e.g. `A1_1-rank2-k8`."""
    ids = []
    for name, command, flags, _ in rows:
        base = f"{name}-{command}"
        ids.append(base if base not in ids else base + "".join(flags).replace("--", "-"))
    return ids


@pytest.mark.parametrize(
    "name, command, flags, digest",
    PINNED_OUTPUTS,
    ids=_pin_ids(PINNED_OUTPUTS),
)
def test_pinned_output_digest(name, command, flags, digest, tmp_path):
    import hashlib

    rows = MATRICES[name]
    inp = tmp_path / "b.json"
    inp.write_text(json.dumps({"n": len(rows), "b": rows}))
    out = tmp_path / "out.json"
    assert run([command, "--input", str(inp), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_walls_runs_one_double_description_per_shard_constraint_list(b_a2t, tmp_path, monkeypatch):
    # Both constructions of one walls run share the matrix's ShardContext,
    # which keeps one shard cone per (normal, cut list): a constraint list
    # that both cut a wall out with is converted once, not once per build.
    from collections import Counter

    import affscat.cones
    from affscat.shards import ShardContext

    converted = Counter()
    double_description = affscat.cones._double_description

    def counted(dim, eqs, ineqs):
        converted[(dim, tuple(eqs), tuple(ineqs))] += 1
        return double_description(dim, eqs, ineqs)

    shard_keys = set()
    assemble = ShardContext._assemble

    def recorded(self, beta, cut_list):
        shard = assemble(self, beta, cut_list)
        shard_keys.add((shard.cone.dim_ambient, shard.cone.eqs, shard.cone.ineqs))
        return shard

    monkeypatch.setattr(affscat.cones, "_double_description", counted)
    monkeypatch.setattr(ShardContext, "_assemble", recorded)
    out = tmp_path / "walls.json"
    assert run(["walls", "--input", b_a2t, "--H", "8", "--k", "8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["equal"] is True
    assert len(shard_keys) > 10
    assert {converted[key] for key in shard_keys} <= {0, 1}
    assert sum(converted[key] for key in shard_keys) > 10


def test_compare_builds_one_ap_context_per_matrix(b_a2t, tmp_path, monkeypatch):
    # fans_compare and build_dcscat both read the matrix's CoxeterContext.ap,
    # so the tube and AP_c are computed once per compare run.
    from affscat.almost_positive import APContext

    built = []
    init = APContext.__init__

    def counted(self, cox):
        built.append(cox)
        init(self, cox)

    monkeypatch.setattr(APContext, "__init__", counted)
    out = tmp_path / "compare.json"
    argv = ["compare", "--input", b_a2t, "--H", "4", "--k", "4", "--L", "4", "--samples", "20"]
    assert run([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["clean"] is True
    assert len(built) == 1


def test_every_stage_on_one_matrix_shares_its_contexts(b_a2t, tmp_path, monkeypatch):
    # build_dcscat, build_easy_scat, fans_compare and the clusters stage all
    # read the ShardContext and APContext of the matrix's CoxeterContext.
    import affscat.cli
    from affscat.almost_positive import APContext
    from affscat.cartan import ExchangeMatrix
    from affscat.coxeter import coxeter_context
    from affscat.mutation import fans_compare
    from affscat.scattering import (
        ORIGIN_IMAGINARY,
        ORIGIN_INV_SORTABLE,
        build_dcscat,
        build_easy_scat,
    )
    from affscat.shards import ShardContext

    rows = [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    b = ExchangeMatrix.from_rows(rows)
    users = {ShardContext: [], APContext: []}

    def recording(cls, name):
        method = getattr(cls, name)

        def recorded(self, *args):
            users[cls].append(self)
            return method(self, *args)

        monkeypatch.setattr(cls, name, recorded)

    for name in ("shard_from_ji", "shard_from_root"):
        recording(ShardContext, name)
    for name in ("ap_positive_real", "clusters", "fan_cones"):
        recording(APContext, name)
    # the clusters stage reads its matrix from the input file: hand it b
    monkeypatch.setattr(affscat.cli, "read_exchange_matrix", lambda data: b)

    cox = coxeter_context(b)
    shards, ap = cox.shards, cox.ap
    d1 = build_dcscat(b, 6, 6)
    d2 = build_easy_scat(b, 6, 6)
    report = fans_compare(b, height_cap=4, truncation=4, probe_cap=4, sample_count=20, seed=0)
    assert report["clean"] is True
    out = tmp_path / "clusters.json"
    assert run(["clusters", "--input", b_a2t, "--H", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["real_clusters"]

    assert coxeter_context(b) is cox and cox.shards is shards and cox.ap is ap
    assert users[ShardContext] and all(user is shards for user in users[ShardContext])
    assert users[APContext] and all(user is ap for user in users[APContext])
    # A c-sortable wall and its d_beta wall come from one cached shard cone.
    # A c^{-1}-sortable wall negates a shard cone and the imaginary wall is
    # built per diagram, so those are equal cones but not one object.
    easy = {w.key(): w for w in d2.walls}
    assert set(easy) == {w.key() for w in d1.walls}
    c_walls = [w for w in d1.walls if w.origin not in (ORIGIN_INV_SORTABLE, ORIGIN_IMAGINARY)]
    assert len(c_walls) >= 5
    assert all(easy[w.key()].cone is w.cone for w in c_walls)

    # An equal matrix built separately gets contexts of its own.
    other = coxeter_context(ExchangeMatrix.from_rows(rows))
    assert other == cox and other is not cox
    assert other.shards is not shards and other.ap is not ap


def test_unwritable_out_is_a_usage_error(b_a11, tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x.json"
    assert run(["walls", "--input", b_a11, "--H", "3", "--k", "3", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert "internal" not in err
    assert str(missing) in err["error"]
    assert not missing.exists()
