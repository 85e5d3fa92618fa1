import random

import pytest

from rnatreedit import fusion_distance
from rnatreedit.cli import main
from rnatreedit.cost_models import structural_model, unit_model
from rnatreedit.edit_distance import InternalError, zs_distance
from rnatreedit.fusion_distance import FusionParams, extract_fusion_script, fusion_dp
from rnatreedit.generators import random_structure
from rnatreedit.multilevel import (ColorSetMismatchError, coarse_pass,
                                   color_rep_b, fine_pass, multilevel_compare)
from rnatreedit.rna_structures import decompose, emit_dotbracket, parse_dotbracket
from rnatreedit.tree_model import build, build_rep_b, index, trees_equal


def db(seq, struct, name=""):
    return parse_dotbracket(f">{name}\n{seq}\n{struct}" if name
                            else f"{seq}\n{struct}", pairing="any")


MODEL = structural_model(t=0.05)
PARAMS = FusionParams(cap=1)

STEM = db("GGGGAAAACCCC", "((((....))))", "stem")


def _seq_for(struct):
    return "".join({"(": "G", ")": "C", ".": "A"}[c] for c in struct)


# A content-heavy shared arm plus one small divergent hairpin per side on
# opposite flanks: the coarse pass must map the shared arms and delete
# both divergent stems.
_SMALL = "(((...)))"
_BIG = "((((((..(((((........)))))..))))))"
CORE_A = db(_seq_for(_SMALL + _BIG), _SMALL + _BIG, "core-a")
CORE_B = db(_seq_for(_BIG + _SMALL), _BIG + _SMALL, "core-b")
# base index spans of the divergent stem-loops
ARM_A = set(range(len(_SMALL)))
ARM_B = set(range(len(_BIG), len(_BIG) + len(_SMALL)))


class TestCoarsePass:
    def test_identical_structures_bijective_colors(self):
        mapping, colors = coarse_pass(STEM, STEM, "c", MODEL, PARAMS)
        # every element of both sides is colored identically
        g = decompose(STEM)
        assert set(colors.colors_a) == {e.index for e in g.elements}
        assert colors.colors_a == colors.colors_b
        values = sorted(colors.colors_a.values())
        assert len(set(values)) == colors.n_colors

    def test_extra_stem_left_uncolored(self):
        base = db("GGGAAACCCAAAA", "(((...)))....", "base")
        extra = db("GGGAAACCCGAAAC", "(((...)))(...)", "extra")
        _, colors = coarse_pass(base, extra, "c", MODEL, PARAMS)
        gb = decompose(extra)
        uncolored = [e.index for e in gb.elements
                     if e.index not in colors.colors_b]
        # the added stem-loop contributes the uncolored elements
        assert uncolored
        base_elements = decompose(base)
        assert set(colors.colors_a) <= {e.index for e in base_elements.elements}

    def test_empty_vs_empty(self):
        e1 = db("AAAA", "....", "e1")
        e2 = db("AAAA", "....", "e2")
        mapping, colors = coarse_pass(e1, e2, "c", MODEL, PARAMS)
        assert colors.n_colors >= 1  # at least the shared root color

    def test_rep_d_selectable(self):
        mapping, colors = coarse_pass(STEM, STEM, "d", MODEL, PARAMS)
        assert colors.n_colors >= 2

    def test_rejects_other_reps(self):
        with pytest.raises(ValueError):
            coarse_pass(STEM, STEM, "b", MODEL, PARAMS)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    @pytest.mark.parametrize("rep", ["c", "d"])
    def test_maps_as_the_fusion_extraction(self, rep, cap):
        """The coarse mapping, in the order the pass lists it (top down), is
        the fusion extraction's at the same cap (at cap 0 the pass runs ZS)."""
        rng = random.Random(5)
        pairs = [(CORE_A, CORE_B)] + [(random_structure(rng, 50, name="x"),
                                       random_structure(rng, 50, name="y"))
                                      for _ in range(6)]
        for a, b in pairs:
            ta, tb = (index(build(s, rep)) for s in (a, b))
            _, state = fusion_dp(ta, tb, MODEL, FusionParams(cap=cap))
            mapping, _ = coarse_pass(a, b, rep, MODEL, FusionParams(cap=cap))
            assert mapping == extract_fusion_script(state)[1]


class TestColorRepB:
    def test_labels_carry_no_color(self):
        _, colors = coarse_pass(CORE_A, CORE_B, "c", MODEL, PARAMS)
        colored = color_rep_b(CORE_A, colors.colors_a, colors.token).tree
        assert trees_equal(colored.tree.root, build_rep_b(CORE_A).root)


class TestFinePass:
    def test_identical_structures_distance_zero(self):
        _, colors = coarse_pass(STEM, STEM, "c", MODEL, PARAMS)
        ca = color_rep_b(STEM, colors.colors_a, colors.token)
        cb = color_rep_b(STEM, colors.colors_b, colors.token)
        d, mapping, _ = fine_pass(ca, cb, MODEL)
        assert d == 0.0
        assert len(mapping) == index(build_rep_b(STEM)).n

    def test_mapping_never_crosses_colors(self):
        result = multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        ca = color_rep_b(CORE_A, result.colors.colors_a, result.colors.token)
        cb = color_rep_b(CORE_B, result.colors.colors_b, result.colors.token)
        for i, j in result.fine_mapping:
            assert ca.colors[i] == cb.colors[j]
            assert ca.colors[i] is not None

    def test_divergent_hairpins_destroyed_and_never_map(self):
        result = multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        ga, gb = decompose(CORE_A), decompose(CORE_B)
        # the divergent stems' elements end up uncolored (coarse-deleted)
        arm_a_elements = {ga.element_of_base()[i] for i in ARM_A}
        arm_b_elements = {gb.element_of_base()[i] for i in ARM_B}
        assert arm_a_elements.isdisjoint(result.colors.colors_a)
        assert arm_b_elements.isdisjoint(result.colors.colors_b)
        ta = color_rep_b(CORE_A, result.colors.colors_a, result.colors.token).tree
        tb = color_rep_b(CORE_B, result.colors.colors_b, result.colors.token).tree

        def bases_of(t, node):
            origin = t.nodes[node].origin
            if origin and origin[0] == "base":
                return {origin[1]}
            if origin and origin[0] == "pair":
                return {origin[1], origin[2]}
            return set()

        assert result.fine_mapping  # the shared arm does map
        for i, j in result.fine_mapping:
            assert not bases_of(ta, i) & ARM_A
            assert not bases_of(tb, j) & ARM_B

    def test_restricted_distance_at_least_unrestricted(self):
        result = multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        ta = index(build_rep_b(CORE_A))
        tb = index(build_rep_b(CORE_B))
        unrestricted, _ = zs_distance(ta, tb, MODEL)
        assert result.fine_distance >= unrestricted

    def test_color_set_mismatch_rejected(self):
        _, colors1 = coarse_pass(STEM, STEM, "c", MODEL, PARAMS)
        other = db("GGAACC", "((..))", "other")
        _, colors2 = coarse_pass(other, other, "c", MODEL, PARAMS)
        ca = color_rep_b(STEM, colors1.colors_a, colors1.token)
        cb = color_rep_b(other, colors2.colors_b, colors2.token)
        with pytest.raises(ColorSetMismatchError):
            fine_pass(ca, cb, MODEL)

    def test_unvalidated_model_warns(self):
        _, colors = coarse_pass(STEM, STEM, "c", MODEL, PARAMS)
        ca = color_rep_b(STEM, colors.colors_a, colors.token)
        cb = color_rep_b(STEM, colors.colors_b, colors.token)
        with pytest.warns(UserWarning, match="has not passed validation"):
            fine_pass(ca, cb, unit_model(ins_scale=2.0))

    def test_forced_crossing_exits_4(self, tmp_path, capsys, monkeypatch):
        real = fusion_distance.extract_script

        def crossing(tables):
            # node 1 of CORE_A lies in its divergent hairpin: uncolored
            script, mapping = real(tables)
            return script, mapping | {(1, 1)}

        monkeypatch.setattr(fusion_distance, "extract_script", crossing)
        with pytest.raises(InternalError):
            multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        paths = []
        for s in (CORE_A, CORE_B):
            path = tmp_path / f"{s.id}.db"
            path.write_text(emit_dotbracket(s))
            paths.append(str(path))
        code = main(["multilevel", *paths])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "internal invariant failure: optimal mapping crossed a color boundary\n"

    def test_pipeline_deterministic(self):
        r1 = multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        r2 = multilevel_compare(CORE_A, CORE_B, MODEL, PARAMS, "c")
        assert r1.fine_distance == r2.fine_distance
        assert r1.fine_mapping == r2.fine_mapping
        assert r1.colors.colors_a == r2.colors.colors_a
