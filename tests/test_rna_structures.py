import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rnatreedit.generators import random_structure
from rnatreedit.rna_structures import (
    ElementKind, IllegalCharacterError, LengthMismatchError,
    NonCanonicalPairError, NonReciprocalPairError, PAIRING_POLICIES,
    PseudoknotDetectedError, UnbalancedBracketsError, decompose, emit_ct,
    emit_dotbracket, parse_ct, parse_dotbracket)


def db(seq, struct, **kw):
    return parse_dotbracket(f"{seq}\n{struct}", **kw)


class TestDotBracket:
    def test_no_brackets_no_pairs(self):
        s = db("GAAAC", ".....")
        assert s.pairs == ()
        assert len(s.unpaired()) == 5

    def test_nested_pairs(self):
        s = db("GGGAAACCC", "(((...)))")
        assert set(s.pairs) == {(0, 8), (1, 7), (2, 6)}

    def test_unbalanced(self):
        with pytest.raises(UnbalancedBracketsError):
            db("GGAAACC", "((.).))")
        with pytest.raises(UnbalancedBracketsError):
            db("GGAAACC", "((.()..")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            db("GGAAACC", "(.....)..")

    def test_illegal_characters(self):
        with pytest.raises(IllegalCharacterError):
            db("GGXAACC", "(.....)")
        with pytest.raises(IllegalCharacterError):
            db("GGAAACC", "(..[.])")

    def test_name_line_and_t_normalization(self):
        s = parse_dotbracket(">tRNA-test\nGGTAACC\n(.....)" )
        assert s.id == "tRNA-test"
        assert s.sequence == "GGUAACC"

    def test_strict_pairing_rejects_wobble(self):
        db("GUUAAAC", "((...))")  # G-C outer? actually G..C; wobble U-A fine
        s = "GGGAAAUCC"
        struct = "(((...)))"
        db(s, struct)  # G-U wobble accepted by default
        with pytest.raises(NonCanonicalPairError):
            db(s, struct, pairing="strict")

    def test_unknown_pairing_policy_rejected(self):
        for policy in ("wobbel", "nonsense"):
            with pytest.raises(ValueError, match=re.escape(str(PAIRING_POLICIES))):
                db("GGGAAACCC", "(((...)))", pairing=policy)

    def test_non_canonical_rejected_even_default(self):
        with pytest.raises(NonCanonicalPairError):
            db("GAAAG", "(...)")

    def test_roundtrip(self):
        text = ">x\nGGGAAACCC\n(((...)))\n"
        s = parse_dotbracket(text)
        assert emit_dotbracket(s) == text


class TestCT:
    def test_all_unpaired(self):
        rows = ["5 test"] + [f"{i} A {i-1} {i+1} 0 {i}" for i in range(1, 6)]
        s = parse_ct("\n".join(rows))
        assert s.pairs == ()

    def test_matches_dotbracket(self):
        s = db("GGGAAACCC", "(((...)))")
        s2 = parse_ct(emit_ct(s))
        assert s2.pairs == s.pairs
        assert s2.sequence == s.sequence

    def test_pseudoknot_detected(self):
        # pairs (2,8) and (4,9) interleave: 2 < 4 < 8 < 9
        partner = {2: 8, 8: 2, 4: 9, 9: 4}
        rows = ["9 pk"]
        seq = "GGGAAACCC"
        for i in range(1, 10):
            rows.append(f"{i} {seq[i-1]} {i-1} {i+1} {partner.get(i, 0)} {i}")
        with pytest.raises(PseudoknotDetectedError):
            parse_ct("\n".join(rows), pairing="any")

    def test_non_reciprocal(self):
        rows = ["3 bad", "1 G 0 2 3 1", "2 A 1 3 0 2", "3 C 2 4 2 3"]
        with pytest.raises(NonReciprocalPairError):
            parse_ct("\n".join(rows))

    def test_bad_record_count(self):
        with pytest.raises(Exception) as exc:
            parse_ct("4 short\n1 A 0 2 0 1\n2 A 1 3 0 2")
        assert "records" in str(exc.value)


class TestDecompose:
    def test_single_stem_loop(self):
        g = decompose(db("GGGAAACCC", "(((...)))"))
        kinds = sorted(e.kind.value for e in g.elements)
        assert kinds == ["exterior", "hairpin", "helix"]
        helix = next(e for e in g.elements if e.kind is ElementKind.HELIX)
        hairpin = next(e for e in g.elements if e.kind is ElementKind.HAIRPIN)
        assert helix.sizes == (3,)
        assert hairpin.sizes == (3,)

    def test_internal_loop_structure(self):
        # hand enumeration: pairs (0,14),(1,13),(4,10),(5,9);
        # helix(2), internal(2,2), helix(2), hairpin(3)
        seq = "GGAAGGAAACCAACC"
        g = decompose(db(seq, "((..((...))..))", pairing="any"))
        by_kind = {}
        for e in g.elements:
            by_kind.setdefault(e.kind, []).append(e)
        assert [e.sizes for e in by_kind[ElementKind.HELIX]] == [(2,), (2,)]
        assert by_kind[ElementKind.INTERNAL][0].sizes == (2, 2)
        assert by_kind[ElementKind.HAIRPIN][0].sizes == (3,)
        assert ElementKind.BULGE not in by_kind
        assert ElementKind.MULTILOOP not in by_kind

    def test_two_stem_loops_exterior(self):
        g = decompose(db("GGAAACCGGAAACC", "((...))((...))", pairing="any"))
        assert len(g.children[0]) == 2
        kinds = [e.kind for e in g.elements]
        assert kinds.count(ElementKind.MULTILOOP) == 0
        assert kinds.count(ElementKind.HAIRPIN) == 2

    def test_bulge_one_sided(self):
        g = decompose(db("GGAGGAAACCCC", "((.((...))))", pairing="any"))
        bulge = next(e for e in g.elements if e.kind is ElementKind.BULGE)
        assert sorted(bulge.sizes) == [0, 1]

    def test_multiloop(self):
        struct = "((((...))((...))))"
        seq = "GGGGAAACCGGAAACCCC"
        g = decompose(db(seq, struct, pairing="any"))
        multi = next(e for e in g.elements if e.kind is ElementKind.MULTILOOP)
        assert len(g.children[multi.index]) == 2

    def test_isolated_pair_is_helix_of_size_one(self):
        g = decompose(db("GAAAC", "(...)"))
        helix = next(e for e in g.elements if e.kind is ElementKind.HELIX)
        assert helix.sizes == (1,)


def _random_structures(count, seed=7):
    rng = random.Random(seed)
    return [random_structure(rng, rng.randint(10, 90), name=f"s{i}")
            for i in range(count)]


class TestInvariants:
    def test_partition_covers_every_base(self):
        for s in _random_structures(100):
            g = decompose(s)
            owner = g.element_of_base()
            assert all(o >= 0 for o in owner)
            total = sum(len(e.bases) for e in g.elements)
            assert total == s.length

    def test_element_counts_consistent(self):
        # every non-helix, non-exterior element hangs below exactly one
        # helix, and every helix leads to exactly one such element
        for s in _random_structures(100):
            g = decompose(s)
            helices = sum(1 for e in g.elements if e.kind is ElementKind.HELIX)
            loops = sum(1 for e in g.elements
                        if e.kind not in (ElementKind.HELIX, ElementKind.EXTERIOR))
            assert helices == loops
            down_degree = sum(len(v) for v in g.children.values())
            assert down_degree == helices

    def test_decompose_deterministic(self):
        for s in _random_structures(10):
            g1, g2 = decompose(s), decompose(s)
            assert [e for e in g1.elements] == [e for e in g2.elements]
            assert g1.children == g2.children

    def test_roundtrip_random(self):
        for s in _random_structures(50):
            assert parse_dotbracket(emit_dotbracket(s)).pairs == s.pairs
            assert parse_ct(emit_ct(s)).pairs == s.pairs


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_random_structures_always_valid(length, seed):
    rng = random.Random(seed)
    s = random_structure(rng, length)
    # construction re-runs the SecondaryStructure invariants
    assert s.length == length
    emit_dotbracket(s)
