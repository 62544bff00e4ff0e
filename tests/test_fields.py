"""Square-class groups of the field towers and the certified
representation test."""

import dataclasses
import time

import pytest

from gwinv.fields import (
    MAX_FINITE_ORDER,
    FieldDescriptor,
    FieldMismatchError,
    FieldSyntaxError,
    SquareClass,
    enumerate_sc,
    minus_one,
    parse_field,
    parse_sc,
    represented_by_binary,
    sc_gen,
    sc_one,
)


class TestFieldDescriptor:
    def test_parse_tower(self):
        F = parse_field("R((t1))((t2))")
        assert F.kind == "R" and F.vars == ("t1", "t2")
        assert str(F) == "R((t1))((t2))"

    def test_parse_finite(self):
        F = parse_field("F7((t1))")
        assert F.kind == "F" and F.q == 7 and F.vars == ("t1",)

    def test_parent(self):
        F = parse_field("F3((t1))((t2))")
        assert str(F.parent()) == "F3((t1))"

    def test_even_q_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("F8")

    def test_non_prime_power_rejected(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("F15")

    def test_prime_power_accepted(self):
        assert parse_field("F9").q == 9

    @pytest.mark.parametrize("q", [25, 27, 1000000007])
    def test_order_accepted(self, q):
        # a prime this large is only accepted quickly when trial division
        # stops at sqrt(q)
        assert parse_field(f"F{q}").q == q

    @pytest.mark.parametrize("q", [1, 21])
    def test_order_rejected(self, q):
        with pytest.raises(FieldSyntaxError):
            parse_field(f"F{q}")

    @pytest.mark.cpu_budget
    def test_order_bound(self):
        # the largest prime below the bound is accepted; a 20-digit prime is
        # rejected at once, where trial division would run for minutes
        assert MAX_FINITE_ORDER == 2**40
        assert parse_field(f"F{2**40 - 87}").q == 2**40 - 87
        start = time.perf_counter()
        with pytest.raises(FieldSyntaxError, match="below 2"):
            parse_field("F100000000000000000039")
        assert time.perf_counter() - start < 0.5

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor("R", None, ("t", "t"))

    def test_bad_syntax(self):
        with pytest.raises(FieldSyntaxError):
            parse_field("Q((t))")

    @pytest.mark.parametrize(
        "text, name",
        [("F3((u))", "u"), ("R((u))", "u"), ("C((1))", "1"), ("R((t1))((u))", "u")],
    )
    def test_literal_names_rejected(self, text, name):
        # 'u' and '1' always parse as the base generator and the unit, so a
        # variable with either name could never be entered and would print
        # like one of them
        with pytest.raises(FieldSyntaxError) as info:
            parse_field(text)
        assert str(info.value) == (
            f"tower variable {name!r} collides with a square-class literal"
            " ('u' is the base generator, '1' the unit)"
        )


BASE_HEADS = ("C", "R", "F3", "F5", "F7", "F9")


def head_tower(head, depth):
    return head + "".join(f"((t{i}))" for i in range(1, depth + 1))


class TestStoredConstants:
    """depth, base_bits and num_gens are stored once per descriptor; the
    descriptor's repr, equality and hash are those of (kind, q, vars)."""

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("head", BASE_HEADS)
    def test_constants_match_their_definitions(self, head, depth):
        F = parse_field(head_tower(head, depth))
        assert F.depth == len(F.vars) == depth
        assert F.base_bits == (0 if F.kind == "C" else 1)
        assert F.num_gens == F.base_bits + len(F.vars)
        if depth:
            P = F.parent()
            assert (P.depth, P.base_bits, P.num_gens) == (depth - 1, F.base_bits, F.num_gens - 1)

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("head", BASE_HEADS)
    def test_repr_equality_and_hash_are_those_of_the_init_fields(self, head, depth):
        text = head_tower(head, depth)
        F, G = parse_field(text), parse_field(text)
        assert F is not G
        assert repr(F) == repr(G) == f"FieldDescriptor(kind={F.kind!r}, q={F.q!r}, vars={F.vars!r})"
        assert F == G and not F != G and F == F
        assert hash(F) == hash(G) == hash((F.kind, F.q, F.vars))
        assert {F: text}[G] == text and G in {F} and len({F, G}) == 1
        assert F != parse_field(head_tower("C" if head != "C" else "R", depth))
        assert F != text and F.__eq__(text) is NotImplemented
        if depth:
            assert F != F.parent() and F.parent() == G.parent()
        assert [f.name for f in dataclasses.fields(F) if f.init] == ["kind", "q", "vars"]

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("head", BASE_HEADS)
    def test_parent_holds_what_the_checking_constructor_stores(self, head, depth):
        """``parent`` skips ``__post_init__``; its result must equal the
        checked descriptor attribute for attribute and stay frozen."""
        F = parse_field(head_tower(head, depth))
        P, want = F.parent(), FieldDescriptor(F.kind, F.q, F.vars[:-1])
        assert type(P) is FieldDescriptor and vars(P) == vars(want)
        assert P == want and hash(P) == hash(want) and repr(P) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            P.vars = ()

    @pytest.mark.parametrize("name", ["depth", "base_bits", "num_gens"])
    def test_constants_are_neither_passed_nor_assigned(self, name):
        F = parse_field("F5((t1))((t2))")
        with pytest.raises(TypeError):
            FieldDescriptor("F", 5, ("t1", "t2"), **{name: 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(F, name, 1)
        assert dataclasses.replace(F, vars=("t1",)).depth == 1


class TestSquareClassGroup:
    def test_squares_collapse(self):
        F = parse_field("C((t1))")
        t = sc_gen(F, "t1")
        assert (t * t).is_one

    def test_minus_one_squares(self):
        F = parse_field("R")
        m = minus_one(F)
        assert (m * m).is_one

    def test_exponent_addition(self):
        F = parse_field("R((t1))((t2))")
        a = parse_sc("-t1", F)
        b = parse_sc("t2", F)
        assert a * b == parse_sc("-t1*t2", F)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            sc_one(parse_field("R")) * sc_one(parse_field("C"))

    @pytest.mark.parametrize("head", ["C", "R", "F3", "F5"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_group_laws_exhaustive(self, head, depth):
        F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
        classes = enumerate_sc(F)
        for a in classes:
            assert (a * a).is_one
            for b in classes:
                assert a * b == b * a
                for c in classes:
                    assert (a * b) * c == a * (b * c)


class TestMinusOne:
    def test_quad_closed(self):
        assert minus_one(parse_field("C((t1))")).is_one

    def test_real_closed(self):
        F = parse_field("R")
        assert minus_one(F) == SquareClass(F, 1)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 27])
    def test_finite_euler_criterion(self, q):
        # oracle: -1 is a square in F_q iff (-1)^((q-1)/2) = 1
        F = parse_field(f"F{q}")
        is_square = (-1) ** ((q - 1) // 2) == 1
        assert minus_one(F).is_one == is_square

    def test_f7_is_u(self):
        F = parse_field("F7")
        assert minus_one(F) == sc_gen(F, "u")


class TestEnumerate:
    def test_real_base(self):
        F = parse_field("R")
        assert [str(a) for a in enumerate_sc(F)] == ["1", "-1"]

    def test_quad_closed_tower(self):
        F = parse_field("C((t1))")
        assert [str(a) for a in enumerate_sc(F)] == ["1", "t1"]

    def test_finite_tower(self):
        F = parse_field("F3((t1))")
        got = {str(a) for a in enumerate_sc(F)}
        assert got == {"1", "u", "t1", "u*t1"}
        # -1 is the class of u over F_3
        assert str(minus_one(F)) == "u"

    @pytest.mark.parametrize(
        "head,extra", [("C", 0), ("R", 1), ("F3", 1), ("F5", 1)]
    )
    def test_size(self, head, extra):
        for depth in range(3):
            F = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
            assert len(enumerate_sc(F)) == 2 ** (depth + extra)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            enumerate_sc(FieldDescriptor("C", None, tuple(f"t{i}" for i in range(7))))


def finite_field_rep_oracle(q: int, a_val: int, c_val: int) -> bool:
    """Exhaustive search: is c represented by x^2 - a y^2 over F_q?"""
    values = {(x * x - a_val * y * y) % q for x in range(q) for y in range(q)}
    squares = {(x * x) % q for x in range(1, q)}
    return any(v != 0 and (v * pow(c_val, q - 2, q)) % q in squares for v in values)


class TestRepresentedByBinary:
    def test_one_always(self):
        F = parse_field("R((t1))")
        a, b = parse_sc("t1", F), parse_sc("-1", F)
        assert represented_by_binary(sc_one(F), a, b)

    def test_minus_ab_always(self):
        F = parse_field("R((t1))")
        a, b = parse_sc("t1", F), parse_sc("-1", F)
        assert represented_by_binary(-(a * b), a, b)

    def test_finite_base_universal(self):
        F = parse_field("F5")
        u = sc_gen(F, "u")
        assert represented_by_binary(u, u, sc_one(F))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_soundness_against_exhaustive_oracle(self, q):
        # every certified True must be a genuine representation; use a
        # concrete non-square to instantiate u
        F = parse_field(f"F{q}")
        nonsquare = next(
            v for v in range(2, q) if v not in {x * x % q for x in range(1, q)}
        )
        concrete = {0: 1, 1: nonsquare}
        for a in enumerate_sc(F):
            for b in enumerate_sc(F):
                for c in enumerate_sc(F):
                    if represented_by_binary(c, a, b):
                        assert finite_field_rep_oracle(
                            q, concrete[(a * b).mask], concrete[c.mask]
                        )

    def test_incomplete_but_sound_over_towers(self):
        # with variables present, only the two guaranteed cases certify
        F = parse_field("F5((t1))")
        t = sc_gen(F, "t1")
        u = sc_gen(F, "u")
        assert not represented_by_binary(u, t, sc_one(F))
        assert represented_by_binary(-(t * sc_one(F)), t, sc_one(F))


class TestLiterals:
    def test_parse_and_render(self):
        F = parse_field("F7((t1))((t2))")
        for text in ["1", "u", "t1", "u*t1*t2"]:
            assert str(parse_sc(text, F)) == text

    def test_minus_folds_into_u(self):
        F = parse_field("F7")
        assert str(parse_sc("-1", F)) == "u"
        F5 = parse_field("F5")
        assert str(parse_sc("-1", F5)) == "1"

    def test_unknown_generator(self):
        with pytest.raises(FieldSyntaxError):
            parse_sc("z", parse_field("R"))

    @pytest.mark.parametrize(
        "text, field, mask",
        [
            ("1", "R((t1))", 0),
            ("-1", "R((t1))", 1),
            ("-1", "C((t1))", 0),
            ("-1", "F3", 1),
            ("-1", "F5", 0),
            ("u", "F3((t1))", 1),
            ("u*u", "F5", 0),
            ("t1*t1", "R((t1))", 0),
            ("-t1", "F3((t1))", 3),
            ("-u*t2", "F7((t1))((t2))", 4),
            (" - u * t1 * 1 ", "F3((t1))", 2),
            ("t2 *t1", "C((t1))((t2))", 3),
        ],
    )
    def test_literal_masks(self, text, field, mask):
        F = parse_field(field)
        assert parse_sc(text, F) == SquareClass(F, mask)

    @pytest.mark.parametrize(
        "text, field, message",
        [
            ("", "R", "empty square-class literal"),
            ("-", "F3", "empty square-class literal"),
            ("  -  ", "R((t1))", "empty square-class literal"),
            ("u", "R", "'u' only exists over a finite base"),
            ("u", "C((t1))", "'u' only exists over a finite base"),
            ("-u*t1", "R((t1))", "'u' only exists over a finite base"),
            ("z", "R", "unknown generator 'z' over R"),
            ("t1*t3", "F5((t1))((t2))", "unknown generator 't3' over F5((t1))((t2))"),
            ("t1**t1", "R((t1))", "unknown generator '' over R((t1))"),
            ("t 1", "R((t1))", "unknown generator 't 1' over R((t1))"),
        ],
    )
    def test_literal_errors(self, text, field, message):
        with pytest.raises(FieldSyntaxError) as info:
            parse_sc(text, parse_field(field))
        assert str(info.value) == message


class TestArgumentChecks:
    """Each argument check of the field descriptors and square classes
    raises through a public call; the parser never makes the first two
    values, but ``FieldDescriptor`` is public."""

    @pytest.mark.parametrize("kind", ["X", "c", ""])
    def test_unknown_base_kind(self, kind):
        with pytest.raises(ValueError, match=f"^unknown base kind {kind!r}$"):
            FieldDescriptor(kind)

    @pytest.mark.parametrize("kind", ["C", "R"])
    def test_order_on_a_base_that_is_not_finite(self, kind):
        with pytest.raises(ValueError, match="^only finite bases carry an order q$"):
            FieldDescriptor(kind, 3, ("t1",))

    @pytest.mark.parametrize("text", ["C", "R", "F3"])
    def test_base_field_has_no_parent(self, text):
        with pytest.raises(ValueError, match="^base field has no parent tower$"):
            parse_field(text).parent()

    @pytest.mark.parametrize("mask", [-1, 4, 1 << 40])
    def test_square_class_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match="^square-class mask out of range for the field$"):
            SquareClass(parse_field("R((t1))"), mask)
