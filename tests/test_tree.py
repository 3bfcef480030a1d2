from itertools import product

import pytest

from selfsim.errors import SizeCapError
from selfsim.tree import Ray, Vertex, all_d_ray, check_level_size, parse_ray


def _level(d, n):
    """The level-n vertices in index order."""
    return [Vertex.from_index(d, n, i) for i in range(d**n)]


def test_level_zero_is_root():
    vs = _level(2, 0)
    assert [str(v) for v in vs] == ["-"]


def test_level_two_binary():
    assert [str(v) for v in _level(2, 2)] == ["11", "12", "21", "22"]


def test_level_two_ternary_prefix():
    vs = [str(v) for v in _level(3, 2)]
    assert len(vs) == 9
    assert vs[:4] == ["11", "12", "13", "21"]


@pytest.mark.parametrize("d,n", [(2, 5), (3, 3), (5, 2)])
def test_index_round_trip(d, n):
    # lexicographic order, spelled independently of the index arithmetic
    vs = [Vertex(letters, d) for letters in product(range(1, d + 1), repeat=n)]
    assert len(set(vs)) == d**n
    for i, v in enumerate(vs):
        assert v.index() == i
        assert Vertex.from_index(d, n, i) == v


def test_size_cap_names_count():
    with pytest.raises(SizeCapError) as exc:
        check_level_size(2, 21)
    assert str(2**21) in str(exc.value)
    assert exc.value.size == 2**21


@pytest.mark.parametrize("d,n", [(2, 14284), (3, 9012), (9, 4506)])
def test_size_cap_writes_out_a_count_of_up_to_4300_digits(d, n):
    with pytest.raises(SizeCapError) as exc:
        check_level_size(d, n)
    assert f" has {d**n} vertices, cap is {1 << 20}" in str(exc.value)
    assert exc.value.size == d**n


@pytest.mark.parametrize("d,n", [(2, 14285), (3, 9013), (9, 4507), (3, 10**9)])
def test_size_cap_writes_a_longer_count_as_a_power(d, n):
    with pytest.raises(SizeCapError,
                       match=rf"^level {n} of the {d}-regular tree has {d}\^{n} "
                             rf"vertices, cap is {1 << 20}$") as exc:
        check_level_size(d, n)
    assert exc.value.size is None


@pytest.mark.parametrize("cap", [-1, 0, 1, 7, 8, 9, 1 << 20])
def test_size_cap_boundary(cap):
    for n in range(25):
        if 2**n <= cap:
            assert check_level_size(2, n, cap) == 2**n
        else:
            with pytest.raises(SizeCapError, match=rf" has {2**n} vertices, cap is {cap}$"):
                check_level_size(2, n, cap)


def test_small_cap_override():
    with pytest.raises(SizeCapError):
        check_level_size(2, 3, cap=7)
    assert check_level_size(2, 3, cap=8) == 8


def test_vertex_parse_and_str():
    v = Vertex.parse("132", 3)
    assert v.letters == (1, 3, 2)
    assert str(v) == "132"
    assert str(Vertex.parse("-", 2)) == "-"
    with pytest.raises(ValueError):
        Vertex.parse("103", 3)
    with pytest.raises(ValueError):
        Vertex.parse("14", 3)


@pytest.mark.parametrize("letters", [(10, 3), (11,), (1, 11, 10, 2), (10,) * 5])
def test_vertex_parse_reads_the_dotted_form_past_degree_nine(letters):
    v = Vertex(letters, 11)
    assert Vertex.parse(str(v), 11) == v
    assert Vertex.parse(str(v), 11).index() == v.index()


@pytest.mark.parametrize("text,message", [
    ("10.03", "may only contain letters 1..11 joined by '.'"),
    ("10..3", "may only contain letters 1..11 joined by '.'"),
    ("10.", "may only contain letters 1..11 joined by '.'"),
    ("1.x", "may only contain letters 1..11 joined by '.'"),
    ("1.٣", "may only contain letters 1..11 joined by '.'"),
    ("12.1", "letter 12 outside 1..11"),
    ("103", "letter 103 outside 1..11"),
])
def test_vertex_parse_refuses_a_bad_dotted_form(text, message):
    with pytest.raises(ValueError, match=message):
        Vertex.parse(text, 11)


def test_vertex_parse_keeps_its_messages_up_to_degree_nine():
    for text in ("10", "1.2", "1x"):
        with pytest.raises(ValueError, match=rf"^vertex string may only contain digits "
                                             rf"1\.\.9, got '{text}'$"):
            Vertex.parse(text, 9)
    with pytest.raises(ValueError, match=r"^letter 4 outside 1\.\.3$"):
        Vertex.parse("14", 3)


def test_vertex_child_concat():
    v = Vertex.parse("21", 2)
    assert str(Vertex(v.letters + (1,), 2)) == "211"
    assert str(v.concat(Vertex.parse("12", 2))) == "2112"
    with pytest.raises(ValueError):
        v.concat(Vertex.parse("1", 3))


def test_ray_prefix_constant_tail():
    ray = Ray(Vertex.root(2), (2,))
    assert str(ray.prefix(3)) == "222"
    assert str(ray.prefix(0)) == "-"


def test_ray_prefix_with_head():
    ray = Ray(Vertex.parse("13", 3), (2,))
    assert str(ray.prefix(4)) == "1322"
    assert str(ray.prefix(1)) == "1"


@pytest.mark.parametrize("ray,n", [(Ray(Vertex.parse("13", 3), (2,)), -1),
                                   (all_d_ray(2), -3)], ids=["head", "all-d"])
def test_ray_prefix_refuses_a_negative_level(ray, n):
    with pytest.raises(ValueError, match=f"level must be >= 0, got {n}"):
        ray.prefix(n)


def test_ray_periodic_tail():
    ray = Ray(Vertex.root(2), (1, 2))
    assert str(ray.prefix(5)) == "12121"


def test_all_d_ray():
    assert str(all_d_ray(3).prefix(4)) == "3333"


def test_parse_ray():
    assert str(parse_ray("dinf", 2).prefix(3)) == "222"
    assert str(parse_ray("13", 3).prefix(4)) == "1313"
    with pytest.raises(ValueError):
        parse_ray("14", 3)
    with pytest.raises(ValueError):
        Ray(Vertex.root(2), ())
