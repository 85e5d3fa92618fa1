import pytest

from rnatreedit.cost_models import (InvalidTError, merge_edge_labels,
                                    merge_node_labels, named_model,
                                    parse_model_config, quantize,
                                    structural_model, unit_model, validate)
from rnatreedit.tree_model import Label

H3 = (Label("hairpin", (3,)), Label("helix", (4,)))
H7 = (Label("hairpin", (7,)), Label("helix", (2,)))
I4 = (Label("internal", (4,)), Label("helix", (1,)))
ROOT = (Label("root"), None)
SAMPLES = [H3, H7, I4, ROOT,
           (Label("bulge", (2,)), Label("helix", (6,))),
           (Label("multiloop", (0,)), Label("helix", (1,)))]


class TestUnitModel:
    def test_match_identity_and_mismatch(self):
        m = unit_model()
        assert m.cost_match(H3, H3) == 0.0
        assert m.cost_match(H3, H7) == 1.0

    def test_del_is_one(self):
        m = unit_model()
        for pair in SAMPLES:
            assert m.cost_del(pair) == 1.0
            assert m.cost_ins(pair) == 1.0

    def test_node_fusion_uncapped_and_capped(self):
        m = unit_model(t=0.1)
        raw = m.cost_node_fusion(H3, H7)
        assert raw == 1.0 + m.t
        capped = unit_model(t=0.1, cap=True)
        assert capped.cost_node_fusion(H3, H7) == 1.0

    def test_negative_t_rejected(self):
        with pytest.raises(InvalidTError):
            unit_model(t=-0.5)


class TestStructuralModel:
    def test_identical_labels_cost_zero(self):
        m = structural_model()
        assert m.cost_match((Label("hairpin", (5,)), None),
                            (Label("hairpin", (5,)), None)) == 0.0

    def test_relative_size_difference(self):
        m = structural_model()
        got = m.cost_match((Label("hairpin", (4,)), None),
                           (Label("hairpin", (6,)), None))
        assert got == pytest.approx(0.2, abs=1e-9)

    def test_kind_penalty_added(self):
        m = structural_model()
        got = m.cost_match((Label("hairpin", (4,)), None),
                           (Label("internal", (4,)), None))
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_costs_clamped_to_unit_interval(self, rng):
        m = structural_model()
        for _ in range(500):
            a = (Label(rng.choice("hib"), (rng.randint(0, 40),)),
                 Label("helix", (rng.randint(0, 30),)))
            b = (Label(rng.choice("hib"), (rng.randint(0, 40),)),
                 Label("helix", (rng.randint(0, 30),)))
            assert 0.0 <= m.cost_match(a, b) <= 1.0
            assert 0.0 < m.cost_del(a) <= 1.0

    def test_subadditivity_random_pairs(self, rng):
        m = structural_model()
        kinds = ["hairpin", "internal", "bulge", "multiloop"]
        for _ in range(1000):
            a = (Label(rng.choice(kinds), (rng.randint(0, 30),)),
                 Label("helix", (rng.randint(0, 20),)))
            b = (Label(rng.choice(kinds), (rng.randint(0, 30),)),
                 Label("helix", (rng.randint(0, 20),)))
            merged_node = (m.merge_node(a[0], b[1], b[0]), a[1])
            assert m.cost_del(a) + m.cost_del(b) >= m.cost_del(merged_node)
            merged_edge = (b[0], m.merge_edge(a[1], a[0], b[1]))
            assert m.cost_del(a) + m.cost_del(b) >= m.cost_del(merged_edge)

    def test_t_covariance_is_exact(self):
        m1 = structural_model(t=0.05)
        m2 = structural_model(t=0.15)
        delta = m2.t - m1.t
        for parent in SAMPLES:
            for child in SAMPLES:
                assert (m2.cost_node_fusion(parent, child)
                        - m1.cost_node_fusion(parent, child)) == delta
                assert (m2.cost_edge_fusion(parent, child)
                        - m1.cost_edge_fusion(parent, child)) == delta
                assert m1.cost_match(parent, child) == m2.cost_match(parent, child)
        assert m1.cost_del(H3) == m2.cost_del(H3)

    def test_negative_t_rejected(self):
        with pytest.raises(InvalidTError):
            structural_model(t=-0.01)

    @pytest.mark.parametrize("normalization", ["sum", "min", "max", "avg"])
    def test_prices_equal_the_plain_formulas(self, rng, normalization):
        """Match and delete prices are the floats of the formulas written
        with ``quantize`` and an equal-pair shortcut, bit for bit."""
        kind_penalty = quantize(0.5)
        reduce_sizes = {"sum": lambda s: float(sum(s)),
                        "min": lambda s: float(min(s)) if s else 0.0,
                        "max": lambda s: float(max(s)) if s else 0.0,
                        "avg": lambda s: sum(s) / len(s) if s else 0.0}[normalization]

        def scalar(lbl):
            return reduce_sizes(lbl.size) if lbl is not None else 0.0

        def comp_match(a, b):
            if a is None and b is None:
                return 0.0
            if a is None or b is None:
                return quantize(kind_penalty + 1.0)
            sa, sb = scalar(a), scalar(b)
            size_term = 0.0 if sa == sb else abs(sa - sb) / (sa + sb)
            kind_term = 0.0 if a.kind == b.kind else kind_penalty
            return quantize(kind_term + size_term)

        def match(a, b):
            if a == b:
                return 0.0
            return min(comp_match(a[0], b[0]) + comp_match(a[1], b[1]), 1.0)

        def comp_del(lbl):
            if lbl is None:
                return 0.0
            s = scalar(lbl)
            return quantize(s / (s + 4.0))

        def del_(a):
            return min(0.125 + comp_del(a[0]) + comp_del(a[1]), 1.0)

        def label():
            if rng.random() < 0.2:
                return None
            return Label(rng.choice(("hairpin", "helix", "bulge")),
                         tuple(rng.randint(0, 12) for _ in range(rng.randint(0, 3))))

        m = structural_model(t=0.05, normalization=normalization)
        pairs = [(label(), label()) for _ in range(150)]
        for a in pairs:
            assert m.cost_del(a).hex() == del_(a).hex()
            for b in pairs[:40] + [a, (a[0], None), (None, a[1]), (None, None)]:
                assert m.cost_match(a, b).hex() == match(a, b).hex()
                assert m.cost_match(b, a).hex() == match(b, a).hex()


class TestMerges:
    def test_node_merge_sums_sizes(self):
        merged = merge_node_labels(Label("bulge", (2,)), Label("helix", (1,)),
                                   Label("internal", (3,)))
        assert merged.total == 6
        assert merged.kind == "bulge+internal"

    def test_edge_merge_keeps_common_kind(self):
        merged = merge_edge_labels(Label("helix", (7,)), Label("internal", (2,)),
                                   Label("helix", (5,)))
        assert merged == Label("helix", (14,))


class TestValidate:
    def test_builtin_models_pass(self):
        for m in (unit_model(), structural_model(), structural_model(t=0.2)):
            report = validate(m, SAMPLES)
            assert report.ok, report.summary()

    def test_asymmetric_ins_del_flagged(self):
        m = unit_model(ins_scale=1.5)
        report = validate(m, SAMPLES)
        assert not report.ok
        failing = [c.condition for c in report.failures()]
        assert any("cost_ins(a) == cost_del(a)" in c for c in failing)
        witness = next(c.witness for c in report.failures())
        assert witness

    def test_subadditivity_violation_flagged(self):
        # superlinear deletion cost: the merged (bigger) object costs more
        # to delete than its two parts together
        base = structural_model()
        from dataclasses import replace
        broken = replace(base, del_fn=lambda p: quantize(
            (p[0].total if p[0] else 0) ** 2 / 1000.0), assume_valid=False)
        report = validate(broken, SAMPLES)
        conditions = {c.condition: c for c in report.checks}
        sub = conditions["subadditivity: del(a) + del(b) >= del(merged)"]
        assert not sub.passed and sub.witness

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            validate(unit_model(), [])


class TestConfig:
    def test_parse_and_echo(self):
        text = """
        # comparison model
        model = structural
        t = 0.125
        cap = true
        kind_penalty = 0.25
        normalization = sum
        """
        m = parse_model_config(text)
        assert m.name == "structural"
        assert m.t == 0.125
        assert m.cap is True
        described = m.describe()
        assert described["t"] == repr(0.125)
        assert described["kind_penalty"] == repr(0.25)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_model_config("model = unit\nbogus = 1\n")

    def test_negative_kind_penalty_rejected(self):
        with pytest.raises(ValueError, match=r"kind_penalty must be >= 0, got -3\.0"):
            structural_model(kind_penalty=-3.0)

    def test_named_model(self):
        assert named_model("unit").name == "unit"
        assert named_model("structural", t=0.2).t == quantize(0.2)
        with pytest.raises(ValueError):
            named_model("nope")


def test_quantized_sums_are_order_independent(rng):
    m = structural_model(t=0.05)
    values = [m.cost_match(a, b) for a in SAMPLES for b in SAMPLES]
    values += [m.cost_del(a) for a in SAMPLES]
    for _ in range(50):
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert sum(shuffled) == sum(values)
