import json
import random
import re

import pytest

from coxcoh.fan import (
    Fan,
    FanError,
    emit_fan,
    irrelevant_generators,
    parse_fan,
    require_valid,
    validate_fan,
)
from coxcoh.sheaf import cohomology_of_U, report_to_json
from conftest import FANO7_IDEAL, FANO8_IDEAL, FANS_DIR, PSEUDO_FAN_TEXT

P1_TEXT = "dim 1\nrays 2\n1\n-1\nmaxcones 2\n1\n2\n"


def test_parse_p1():
    fan = parse_fan(P1_TEXT)
    assert fan.dim == 1
    assert fan.rays == ((1,), (-1,))
    assert fan.max_cones == ((1,), (2,))


def test_parse_example_fan_shapes():
    f2 = parse_fan((FANS_DIR / "blowup_p11336.fan").read_text())
    assert (f2.dim, f2.n_rays, len(f2.max_cones)) == (5, 7, 10)
    f3 = parse_fan((FANS_DIR / "blowup_p112236.fan").read_text())
    assert (f3.dim, f3.n_rays, len(f3.max_cones)) == (5, 8, 18)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FanError, match="non-primitive ray"):
        parse_fan("dim 2\nrays 3\n2 0\n0 1\n-1 -1\nmaxcones 1\n1 2\n")
    with pytest.raises(FanError, match="line 3"):
        parse_fan("dim 2\nrays 3\n2 0\n0 1\n-1 -1\nmaxcones 1\n1 2\n")
    with pytest.raises(FanError, match="out of range"):
        parse_fan("dim 1\nrays 2\n1\n-1\nmaxcones 2\n1\n3\n")
    with pytest.raises(FanError, match="expected integer"):
        parse_fan("dim x\nrays 2\n1\n-1\nmaxcones 2\n1\n2\n")
    with pytest.raises(FanError, match="unexpected end"):
        parse_fan("dim 2\nrays 3\n1 0\n0 1\n-1 -1\nmaxcones 2\n1 2\n")
    with pytest.raises(FanError, match="duplicate ray"):
        parse_fan("dim 1\nrays 2\n1\n1\nmaxcones 2\n1\n2\n")
    with pytest.raises(FanError, match="zero ray"):
        parse_fan("dim 2\nrays 3\n0 0\n0 1\n-1 -1\nmaxcones 1\n2 3\n")
    with pytest.raises(FanError, match="not used"):
        parse_fan("dim 2\nrays 3\n1 0\n0 1\n-1 -1\nmaxcones 1\n1 2\n")


def test_comments_and_whitespace_ignored():
    text = "# a comment\n" + P1_TEXT.replace("rays 2", "rays 2  # trailing")
    fan = parse_fan(text)
    assert fan.n_rays == 2


def test_validate_p1(p1_fan):
    rep = validate_fan(p1_fan)
    assert rep.simplicial and rep.complete is True and rep.wall_condition


def test_validate_broken_p1_not_complete():
    fan = parse_fan(P1_TEXT)
    broken = type(fan)(dim=1, rays=fan.rays, max_cones=(fan.max_cones[0],))
    rep = validate_fan(broken)
    assert rep.complete is False and not rep.wall_condition


def test_pseudo_fan_not_complete():
    # every wall lies in two cones on opposite sides, but the cones wind
    # twice around the origin: the interior point of cone 1 is covered twice
    rep = validate_fan(parse_fan(PSEUDO_FAN_TEXT))
    assert rep.simplicial and rep.wall_condition
    assert rep.complete is False and not rep.ok()
    assert any("lies in 2 max cones" in m for m in rep.messages)


def test_cones_on_one_side_of_a_wall_not_complete():
    # the cycle of cones turns back at rays 2 and 3, so the cones on each of
    # those walls lie on one side and the sector between rays 3 and 2 is
    # covered three times; no point lies in no cone
    text = "dim 2\nrays 5\n1 0\n-1 6\n1 2\n-2 1\n-1 -2\nmaxcones 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
    rep = validate_fan(parse_fan(text))
    assert rep.simplicial and rep.wall_condition
    assert rep.complete is False
    assert any("wall {2} has both its cones on one side" in m for m in rep.messages)


@pytest.mark.parametrize(
    "fan, messages",
    [
        # P^1 with ray 1 repeated as ray 2, and ray 1 in no cone
        (
            Fan(1, ((-1,), (-1,), (1,)), ((2,), (3,))),
            ["ray 1 (-1,) lies in no max cone", "ray 2 repeats ray 1 (-1,)"],
        ),
        # P^2 with an extra ray (1, 1) that no cone uses
        (
            Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((1, 2), (2, 3), (1, 3))),
            ["ray 4 (1, 1) lies in no max cone"],
        ),
    ],
)
def test_fan_built_in_code_with_a_stray_ray_is_refused(fan, messages):
    # parse_fan refuses both fans; validate_fan holds a Fan built in code to
    # the same rule, so every route raises FanError
    rep = validate_fan(fan)
    assert rep.simplicial and rep.wall_condition
    assert rep.complete is False and not rep.ok()
    assert list(rep.messages) == messages
    with pytest.raises(FanError, match="fan failed validation"):
        cohomology_of_U(fan)


@pytest.mark.parametrize("index", [3, 0, -1])
def test_fan_built_in_code_with_a_cone_index_out_of_range_is_refused(index):
    # parse_fan refuses such an index with a line number; on a Fan built in
    # code validate_fan names the cone and the index before any determinant
    # (0 and -1 would otherwise index rays from the end)
    fan = Fan(1, ((1,), (-1,)), ((1,), (index,)))
    rep = validate_fan(fan)
    assert not rep.ok() and rep.complete is False
    assert list(rep.messages) == ["cone 2 names ray index %d outside 1..2" % index]
    with pytest.raises(FanError, match="cone 2 names ray index %d outside" % index):
        require_valid(fan)
    with pytest.raises(FanError, match="fan failed validation"):
        cohomology_of_U(fan)


@pytest.mark.parametrize(
    "cones, message",
    [
        (((1, 2, 3), (1, 2), (2, 3)), "cone 1 has size 3, expected 2"),
        (((1, 2), (2,), (1, 3), (2, 3)), "cone 2 has size 1, expected 2"),
    ],
)
def test_fan_built_in_code_with_a_cone_of_the_wrong_size_is_refused(cones, message):
    # parse_fan reads exactly d indices per cone; on a Fan built in code a
    # d x d determinant of another number of rays is never taken
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), cones)
    rep = validate_fan(fan)
    assert not (rep.simplicial or rep.complete or rep.wall_condition)
    assert list(rep.messages) == [message]
    with pytest.raises(FanError, match=message):
        require_valid(fan)


@pytest.mark.parametrize(
    "rays, message",
    [
        # P^2's cones on (2, 0): its degrees came out (1), (2), (2) and
        # h^0(O(1)) as 1, where P^2 has degrees 1, 1, 1 and h^0(O(1)) = 3
        (((2, 0), (0, 1), (-1, -1)), "non-primitive ray 1: (2, 0)"),
        # a short ray used to raise a bare IndexError
        (((1,), (0, 1), (-1, -1)), "ray 1 (1,) has size 1, expected 2"),
        (((1, 0), (0, 0), (-1, -1)), "zero ray 2"),
    ],
)
def test_fan_built_in_code_with_a_bad_ray_is_refused(rays, message):
    # parse_fan refuses each of these rays with a line number; on a Fan
    # built in code validate_fan refuses it before any determinant
    fan = Fan(2, rays, ((1, 2), (2, 3), (1, 3)))
    rep = validate_fan(fan)
    assert not (rep.simplicial or rep.complete or rep.wall_condition)
    assert list(rep.messages) == [message]
    with pytest.raises(FanError, match=re.escape(message)):
        require_valid(fan)
    with pytest.raises(FanError, match="fan failed validation"):
        cohomology_of_U(fan)


def test_fan_built_in_code_with_cones_in_any_index_order_is_valid(fano8_fan):
    # a wall is keyed by its ascending indices, so two cones that list its
    # rays in different orders still share it
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    shuffled = Fan(3, rays, ((2, 1, 3), (1, 2, 4), (3, 1, 4), (2, 3, 4)))
    ordered = Fan(3, rays, tuple(tuple(sorted(cone)) for cone in shuffled.max_cones))
    rng = random.Random(8)
    fano8 = Fan(
        fano8_fan.dim,
        fano8_fan.rays,
        tuple(tuple(rng.sample(cone, len(cone))) for cone in fano8_fan.max_cones),
    )
    for fan, same in ((shuffled, ordered), (fano8, fano8_fan)):
        assert validate_fan(fan).ok(), validate_fan(fan).messages
        doc = json.dumps(report_to_json(cohomology_of_U(fan)))
        assert doc == json.dumps(report_to_json(cohomology_of_U(same)))


def test_complete_is_a_bool_on_shipped_fans_and_relabelings(fano7_fan):
    for path in sorted(FANS_DIR.glob("*.fan")):
        rep = validate_fan(parse_fan(path.read_text()))
        assert rep.complete is True, path.name
    rays = list(fano7_fan.rays)
    for seed in range(8):
        perm = list(range(1, len(rays) + 1))
        random.Random(seed).shuffle(perm)
        new_rays = [None] * len(rays)
        for old, new in enumerate(perm, start=1):
            new_rays[new - 1] = rays[old - 1]
        cones = [tuple(sorted(perm[i - 1] for i in cone)) for cone in fano7_fan.max_cones]
        random.Random(seed).shuffle(cones)
        fan = type(fano7_fan)(dim=fano7_fan.dim, rays=tuple(new_rays), max_cones=tuple(cones))
        assert validate_fan(fan).complete is True
        # dropping a cone leaves walls with one cone
        assert validate_fan(type(fan)(fan.dim, fan.rays, fan.max_cones[1:])).complete is False


def test_complete_implies_wall_on_examples(fano7_fan, fano8_fan):
    for fan in (fano7_fan, fano8_fan):
        rep = validate_fan(fan)
        assert rep.simplicial and rep.wall_condition and rep.complete is True


def test_printed_cone_variant_fails_validation():
    # the as-printed 16th cone (2 3 6 7 8) breaks the wall condition; the
    # shipped fan uses the corrected cone (2 4 6 7 8)
    text = (FANS_DIR / "blowup_p112236.fan").read_text().replace("2 4 6 7 8", "2 3 6 7 8")
    rep = validate_fan(parse_fan(text))
    assert rep.wall_condition is False and rep.complete is False


def test_irrelevant_generators_p2(p2_fan):
    gens = [g.as_string() for g in irrelevant_generators(p2_fan)]
    assert gens == ["x1", "x2", "x3"]


def test_irrelevant_generators_example_fans(fano7_fan, fano8_fan):
    gens2 = [g.as_string() for g in irrelevant_generators(fano7_fan)]
    # max-cone order; the published list groups the same ten monomials differently
    assert set(gens2) == set(FANO7_IDEAL)
    assert len(gens2) == 10
    assert gens2[0] == "x6x7"
    gens3 = [g.as_string() for g in irrelevant_generators(fano8_fan)]
    assert gens3 == FANO8_IDEAL


def test_irrelevant_deduplicates():
    # a cone listed twice collapses to a single generator, first occurrence kept
    from coxcoh.fan import Fan

    fan = parse_fan(P1_TEXT)
    doubled = Fan(dim=1, rays=fan.rays, max_cones=((1,), (2,), (1,)))
    gens = irrelevant_generators(doubled)
    assert [g.support for g in gens] == [(2,), (1,)]


def test_roundtrip_through_emit(fano7_fan, fano8_fan, p1_fan, p2_fan, p112_fan):
    for fan in (fano7_fan, fano8_fan, p1_fan, p2_fan, p112_fan):
        assert parse_fan(emit_fan(fan)) == fan


def test_roundtrip_random_relabelings(fano7_fan):
    rng = random.Random(3)
    rays = list(fano7_fan.rays)
    for _ in range(5):
        perm = list(range(1, len(rays) + 1))
        rng.shuffle(perm)
        new_rays = [None] * len(rays)
        for old, new in enumerate(perm, start=1):
            new_rays[new - 1] = rays[old - 1]
        cones = tuple(tuple(sorted(perm[i - 1] for i in cone)) for cone in fano7_fan.max_cones)
        fan = type(fano7_fan)(dim=fano7_fan.dim, rays=tuple(new_rays), max_cones=cones)
        assert parse_fan(emit_fan(fan)) == fan
        rep = validate_fan(fan)
        assert rep.complete is True


def test_generator_count_bounded_by_cones(fano7_fan, fano8_fan, p2_fan):
    for fan in (fano7_fan, fano8_fan, p2_fan):
        gens = irrelevant_generators(fan)
        assert len(gens) <= len(fan.max_cones)
        union = set()
        for g in gens:
            assert g.support, "irrelevant generator with empty support"
            union.update(g.support)
        assert union == set(range(1, fan.n_rays + 1))
