"""The imaginary-wall sweep at ranks 5 and 6, too slow for tier-1.

Tier-1 collects test_*.py only, so it leaves this module out; CI runs it by
path, one step per sweep:

    PYTHONPATH=src python -m pytest -q tests/sweep_deep.py -k rank5
    PYTHONPATH=src python -m pytest -q tests/sweep_deep.py -k rank6

Each orientation gets the three checks of
test_orientation_sweep.check_imaginary_wall_to at H = k = m |delta|: the two
constructions agree, the diagram is consistent, and it turns inconsistent
once the q^m coefficient of f_inf moves by 1.  The 158 rank-5 orientations
run at m = 2, past the q^1 term that test_orientation_sweep checks them at;
the 254 acyclic rank-6 orientations run at m = 1.
"""

import pytest
from test_orientation_sweep import RANK5, _id, acyclic_orientations, check_imaginary_wall_to

RANK6 = acyclic_orientations(6)


def test_rank6_count():
    assert len(RANK6) == len({_id(o) for o in RANK6}) == 254


@pytest.mark.parametrize("orientation", RANK5, ids=_id)
def test_rank5_imaginary_wall_to_q2(orientation):
    check_imaginary_wall_to(orientation[2], 2)


@pytest.mark.parametrize("orientation", RANK6, ids=_id)
def test_rank6_imaginary_wall(orientation):
    check_imaginary_wall_to(orientation[2], 1)
