import statistics

import pytest

from cggen import (
    CONCEPT,
    AutoGcgConfig,
    AutoVarConfig,
    AutoVocConfig,
    ConfigError,
    ParamSpec,
    Signature,
    Vocabulary,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
    restriction_for,
    sample_param,
    slot_domain,
    validate_gamma,
    validate_graph,
)
from conftest import fresh_rng, make_hierarchy
from oracles import brute_incidences, brute_subtype

DEPTH4_VOC_CONFIG = AutoVocConfig(
    concept_depth=ParamSpec.fixed(4),
    relation_depth=ParamSpec.fixed(3),
    max_children=ParamSpec.fixed(3),
    markers_per_type=ParamSpec.fixed(3),
    arities=(1, 2, 3),
)


class TestSampleParam:
    def test_fixed_value(self):
        assert sample_param(ParamSpec.fixed(3), (1, 10), fresh_rng("sp1")) == 3

    def test_fixed_clamped_and_rounded(self):
        rng = fresh_rng("sp2")
        assert sample_param(ParamSpec.fixed(3.4), (1, 10), rng) == 3
        assert sample_param(ParamSpec.fixed(99), (1, 10), rng) == 10
        assert sample_param(ParamSpec.fixed(-5), (1, 10), rng) == 1

    def test_zero_variance_normal(self):
        rng = fresh_rng("sp3")
        spec = ParamSpec(5, 0)
        assert all(sample_param(spec, (1, 10), rng) == 5 for _ in range(100))

    def test_statistical_mean(self):
        # Clamping to [1, 10] is symmetric around the mean, so it stays 5.
        rng = fresh_rng("sp4")
        spec = ParamSpec(5, 2)
        draws = [sample_param(spec, (1, 10), rng) for _ in range(10_000)]
        assert all(1 <= d <= 10 for d in draws)
        assert abs(statistics.fmean(draws) - 5) < 0.1

    def test_draw_that_overflows_is_clamped(self):
        # gauss(1e308, 1e308) overflows to +-inf on some draws; they clamp to a bound.
        rng = fresh_rng("sp5")
        spec = ParamSpec(1e308, 1e308)
        assert all(0 <= sample_param(spec, (0, 10), rng) <= 10 for _ in range(100))

    def test_negative_stddev_rejected(self):
        with pytest.raises(ConfigError):
            ParamSpec(5, -1)


class TestAutoVocabulary:
    def test_depth_children_and_marker_counts(self):
        for trial in range(20):
            rng = fresh_rng("voc-fig", trial)
            vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, rng)
            concepts = vocab.concepts
            # depth 4 = 4 levels, so the deepest type has 3 ancestors
            assert max(len(concepts.up[t]) - 1 for t in concepts.labels) == 3
            for type_id in concepts.labels:
                assert len(concepts.children[type_id]) <= 3
            markers_by_type = {}
            for marker in vocab.markers.values():
                markers_by_type.setdefault(marker.type_id, 0)
                markers_by_type[marker.type_id] += 1
            assert set(markers_by_type) == set(concepts.labels)
            assert all(count == 3 for count in markers_by_type.values())

    def test_relation_hierarchy_and_signatures(self):
        for trial in range(20):
            rng = fresh_rng("voc-sig", trial)
            vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, rng)
            for arity in (1, 2, 3):
                hierarchy = vocab.relations[arity]
                assert max(len(hierarchy.up[t]) - 1 for t in hierarchy.labels) == 2
                root = hierarchy.root
                assert vocab.signatures[root].restrictions == ("Top",) * arity
                assert restriction_for(vocab, root, arity - 1) == "Top"
                # Pointwise monotone over every ancestor/descendant pair.
                for sub in hierarchy.labels:
                    for sup in hierarchy.up[sub]:
                        for below, above in zip(
                            vocab.signatures[sub].restrictions,
                            vocab.signatures[sup].restrictions,
                        ):
                            assert brute_subtype(vocab.concepts, below, above)

    def test_degenerate_depth_one(self):
        config = AutoVocConfig(
            concept_depth=ParamSpec.fixed(1),
            relation_depth=ParamSpec.fixed(1),
            max_children=ParamSpec.fixed(3),
            markers_per_type=ParamSpec.fixed(0),
            arities=(2,),
        )
        vocab = auto_vocabulary(config, fresh_rng("voc-deg"))
        assert set(vocab.concepts.labels) == {"Top"}
        assert set(vocab.relations[2].labels) == {"T2"}
        assert vocab.signatures["T2"].restrictions == ("Top", "Top")
        assert vocab.markers == {}

    def test_labels_unique_across_hierarchies(self):
        vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, fresh_rng("voc-labels"))
        all_labels = list(vocab.concepts.labels.values())
        for hierarchy in vocab.relations.values():
            all_labels.extend(hierarchy.labels.values())
        assert len(all_labels) == len(set(all_labels))


class TestAutoGammaCgs:
    def test_smallest_case(self):
        concepts = make_hierarchy(CONCEPT, "Top", [])
        binary = make_hierarchy("relation", "T2", [], arity=2)
        vocab = Vocabulary(
            concepts, {2: binary}, {"T2": Signature("T2", ("Top", "Top"))}, {}
        )
        result = auto_gamma_cgs(
            vocab,
            AutoGcgConfig(ParamSpec.fixed(1), ParamSpec.fixed(1)),
            fresh_rng("gcg-min"),
        )
        assert len(result.gammas) == 1
        graph = result.gammas[0].graph
        assert len(graph.relations) == 1
        assert 1 <= len(graph.concepts) <= 2
        assert not validate_graph(result.vocabulary, graph).violations

    def test_size_bounds(self):
        vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, fresh_rng("gcg-voc"))
        result = auto_gamma_cgs(
            vocab,
            AutoGcgConfig(ParamSpec.fixed(20), ParamSpec.fixed(8)),
            fresh_rng("gcg-sizes"),
        )
        assert len(result.gammas) == 20
        # Largest component: one relation node plus max-arity fresh concepts.
        max_component = 1 + max(vocab.relations)
        for gcg in result.gammas:
            assert 8 <= gcg.graph.size < 8 + max_component
            assert not validate_graph(result.vocabulary, gcg.graph).violations
            assert gcg.variables == ()

    def test_components_chain_through_shared_markers(self):
        vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, fresh_rng("gcg-chain-voc"))
        result = auto_gamma_cgs(
            vocab,
            AutoGcgConfig(ParamSpec.fixed(10), ParamSpec.fixed(10)),
            fresh_rng("gcg-chain"),
        )
        shared = 0
        for gcg in result.gammas:
            for node_id in gcg.graph.concepts:
                if len(brute_incidences(gcg.graph, node_id)) > 1:
                    shared += 1
        assert shared > 0

    def test_no_relation_types_is_config_error(self):
        concepts = make_hierarchy(CONCEPT, "Top", [])
        vocab = Vocabulary(concepts, {}, {}, {})
        with pytest.raises(ConfigError):
            auto_gamma_cgs(
                vocab,
                AutoGcgConfig(ParamSpec.fixed(1), ParamSpec.fixed(1)),
                fresh_rng("gcg-none"),
            )

    def test_markerless_vocabulary_mints(self):
        config = AutoVocConfig(
            concept_depth=ParamSpec.fixed(3),
            relation_depth=ParamSpec.fixed(2),
            max_children=ParamSpec.fixed(2),
            markers_per_type=ParamSpec.fixed(0),
            arities=(2,),
        )
        vocab = auto_vocabulary(config, fresh_rng("gcg-mint-voc"))
        assert not vocab.markers
        result = auto_gamma_cgs(
            vocab,
            AutoGcgConfig(ParamSpec.fixed(3), ParamSpec.fixed(5)),
            fresh_rng("gcg-mint"),
        )
        assert result.vocabulary.markers
        for gcg in result.gammas:
            assert not validate_graph(result.vocabulary, gcg.graph).violations


@pytest.fixture(scope="module")
def built_inputs():
    vocab = auto_vocabulary(DEPTH4_VOC_CONFIG, fresh_rng("var-voc"))
    result = auto_gamma_cgs(
        vocab, AutoGcgConfig(ParamSpec.fixed(6), ParamSpec.fixed(8)), fresh_rng("var-gcg")
    )
    return result.vocabulary, list(result.gammas)


class TestAutoVariables:
    def test_zero_counts_unchanged(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(0),
            relation_vars=ParamSpec.fixed(0),
            marker_vars=ParamSpec.fixed(0),
            values_per_variable=ParamSpec.fixed(4),
            specialisations=ParamSpec.fixed(2),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var0"))
        assert list(result.gammas) == gammas
        assert result.warnings == ()

    def test_one_variable_of_each_kind(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(1),
            relation_vars=ParamSpec.fixed(1),
            marker_vars=ParamSpec.fixed(1),
            values_per_variable=ParamSpec.fixed(4),
            specialisations=ParamSpec.fixed(2),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var3"))
        for gcg in result.gammas:
            kinds = sorted(v.target.kind for v in gcg.variables)
            assert kinds == ["concept-type", "marker", "relation-type"]
            assert validate_gamma(vocab, gcg) == []
            for variable in gcg.variables:
                assert 1 <= len(variable.domain) <= 4

    def test_marker_domains_follow_the_rule(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(0),
            relation_vars=ParamSpec.fixed(0),
            marker_vars=ParamSpec.fixed(2),
            values_per_variable=ParamSpec.fixed(3),
            specialisations=ParamSpec.fixed(0),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var-mark"))
        for gcg in result.gammas:
            for variable in gcg.variables:
                admissible = slot_domain(vocab, gcg, variable.target)
                assert set(variable.domain).issubset(admissible)

    def test_values_capped_by_admissible_set(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(0),
            relation_vars=ParamSpec.fixed(1),
            marker_vars=ParamSpec.fixed(0),
            values_per_variable=ParamSpec.fixed(10_000),
            specialisations=ParamSpec.fixed(0),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var-cap"))
        for gcg in result.gammas:
            (variable,) = gcg.variables
            admissible = slot_domain(vocab, gcg, variable.target)
            assert variable.domain == admissible

    def test_only_the_signature_rule(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(*(ParamSpec.fixed(1),) * 5)
        with pytest.raises(ConfigError, match="by signature only"):
            auto_variables(vocab, gammas, config, fresh_rng("var-rule"), signature_compatible=False)

    def test_truncation_warning(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(0),
            relation_vars=ParamSpec.fixed(10_000),
            marker_vars=ParamSpec.fixed(0),
            values_per_variable=ParamSpec.fixed(2),
            specialisations=ParamSpec.fixed(0),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var-trunc"))
        assert result.warnings
        for gcg in result.gammas:
            assert len(gcg.variables) == len(gcg.graph.relations)

    def test_rerun_adds_more_variables(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(1),
            relation_vars=ParamSpec.fixed(0),
            marker_vars=ParamSpec.fixed(0),
            values_per_variable=ParamSpec.fixed(3),
            specialisations=ParamSpec.fixed(1),
        )
        once = auto_variables(vocab, gammas, config, fresh_rng("var-again-1"))
        twice = auto_variables(
            vocab, list(once.gammas), config, fresh_rng("var-again-2")
        )
        for before, after in zip(once.gammas, twice.gammas):
            assert len(after.variables) == len(before.variables) + 1
            slots = [(v.target.kind, v.target.node_id) for v in after.variables]
            assert len(slots) == len(set(slots))

    def test_concept_domains_respect_signatures(self, built_inputs):
        vocab, gammas = built_inputs
        config = AutoVarConfig(
            concept_vars=ParamSpec.fixed(2),
            relation_vars=ParamSpec.fixed(0),
            marker_vars=ParamSpec.fixed(0),
            values_per_variable=ParamSpec.fixed(5),
            specialisations=ParamSpec.fixed(3),
        )
        result = auto_variables(vocab, gammas, config, fresh_rng("var-con"))
        for gcg in result.gammas:
            for variable in gcg.variables:
                admissible = slot_domain(vocab, gcg, variable.target)
                assert set(variable.domain).issubset(admissible)
