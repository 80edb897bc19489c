import json
import re
from pathlib import Path

import pytest

from cggen import (
    AutoGcgConfig,
    ConceptNode,
    ConceptualGraph,
    FormatError,
    GammaCG,
    GenerationProvenance,
    GeneratorConfig,
    ParamSpec,
    RelationNode,
    StructureError,
    Variable,
    VariableTarget,
    VocabularyError,
    auto_gamma_cgs,
    auto_variables,
    auto_vocabulary,
    compute_stats,
    export_dot,
    generate_dataset,
    load_cg,
    load_dataset,
    load_gamma_cg,
    load_vocabulary,
    save_dataset,
    save_gamma_cg,
    save_vocabulary,
    validate_gamma,
    write_dataset,
)
from cggen import formats
from cggen.cli import main
from cggen.formats import _cg_document, iter_dataset, load_document
from cggen.gamma import TARGET_CONCEPT_TYPE
from conftest import REFERENCE_VAR_CONFIG, REFERENCE_VOC_CONFIG, fresh_rng
from oracles import derivations_text, parse_dot
from test_field_parity import case_id, cases, generate, mutated, read, write


def batch_text(dataset: Path, count: int) -> int:
    """The length of the text of the first ``count`` CG documents of ``dataset`` and their lines.

    As ``formats._READ_BATCH_BYTES``, it ends the first batch of the
    read-back with the ``count``-th CG.
    """
    names = json.loads((dataset / "manifest.json").read_text())["cgFiles"][:count]
    lines = (dataset / "derivations.jsonl").read_text().splitlines(keepends=True)[1 : count + 1]
    return sum(len((dataset / name).read_text()) for name in names) + sum(map(len, lines))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    vocab = auto_vocabulary(REFERENCE_VOC_CONFIG, fresh_rng("fmt-voc"))
    gcg_result = auto_gamma_cgs(
        vocab, AutoGcgConfig(ParamSpec.fixed(4), ParamSpec.fixed(7)), fresh_rng("fmt-gcg")
    )
    vocab = gcg_result.vocabulary
    var_result = auto_variables(
        vocab, list(gcg_result.gammas), REFERENCE_VAR_CONFIG, fresh_rng("fmt-var")
    )
    config = GeneratorConfig(max_cgs=5, min_size=12, max_spe=2, seed=11)
    dataset = generate_dataset(vocab, list(var_result.gammas), config)
    return dataset.vocabulary, list(var_result.gammas), dataset, config


class TestVocabularyFormat:
    def test_round_trip(self, built, tmp_path):
        vocab, _, _, _ = built
        path = tmp_path / "voc.json"
        save_vocabulary(path, vocab)
        assert load_vocabulary(path) == vocab

    def test_byte_determinism(self, built, tmp_path):
        vocab, _, _, _ = built
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_vocabulary(a, vocab)
        save_vocabulary(b, load_vocabulary(a))
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "formatVersion": "3.0.0",\n  broken\n}')
        with pytest.raises(FormatError, match=r"bad\.json:3"):
            load_vocabulary(path)

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"formatVersion": "3.0.0", "kind": "vocabulary"}))
        with pytest.raises(FormatError, match="conceptTypes"):
            load_vocabulary(path)

    def test_unknown_major_version_rejected(self, built, tmp_path):
        vocab, _, _, _ = built
        path = tmp_path / "voc.json"
        save_vocabulary(path, vocab)
        doc = json.loads(path.read_text())
        doc["formatVersion"] = "2.0.0"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unsupported major version '2.0.0'"):
            load_vocabulary(path)

    def test_signature_longer_than_arity_is_validation_error(self, built, tmp_path):
        vocab, _, _, _ = built
        path = tmp_path / "voc.json"
        save_vocabulary(path, vocab)
        doc = json.loads(path.read_text())
        doc["relationTypes"][0]["types"][0]["signature"].append("Top")
        path.write_text(json.dumps(doc))
        with pytest.raises(VocabularyError, match="signature"):
            load_vocabulary(path)

    def test_non_monotone_signature_names_pair(self, tiny_vocab, tmp_path):
        path = tmp_path / "voc.json"
        save_vocabulary(path, tiny_vocab)
        doc = json.loads(path.read_text())
        for entry in doc["relationTypes"]:
            if entry["arity"] == 2:
                for item in entry["types"]:
                    if item["id"] == "knows":
                        item["signature"] = ["Place", "Person"]
        path.write_text(json.dumps(doc))
        with pytest.raises(VocabularyError) as err:
            load_vocabulary(path)
        assert "attends" in str(err.value) and "knows" in str(err.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda doc: doc["relationTypes"][0]["types"][0].update(signature=[[1]]),
                r"relationTypes\[0\]\.types\[0\]\.signature\[0\] must be str, found list",
            ),
            (
                lambda doc: doc["conceptTypes"]["types"][1].update(parents=[[1]]),
                r"conceptTypes\.types\[1\]\.parents\[0\] must be str, found list",
            ),
            (
                lambda doc: doc["markers"].append(dict(doc["markers"][0])),
                "duplicate marker id 'alice'",
            ),
            (
                lambda doc: doc["conceptTypes"]["types"].append(
                    dict(doc["conceptTypes"]["types"][0], label="Other")
                ),
                "duplicate type id 'Act' in conceptTypes",
            ),
        ],
        ids=["signature-item", "parents-item", "duplicate-marker", "duplicate-type"],
    )
    def test_malformed_entry_is_format_error(self, tiny_vocab, tmp_path, edit, message):
        path = tmp_path / "voc.json"
        save_vocabulary(path, tiny_vocab)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_vocabulary(path)
        assert main(["validate", str(path)]) == 2


class TestGraphFormats:
    def test_empty_cg_round_trip(self, tmp_path):
        path = tmp_path / "cg.json"
        path.write_bytes(_cg_document(ConceptualGraph({}, {})))
        assert load_cg(path) == ConceptualGraph({}, {})

    def test_generic_marker_serialized_as_null(self, tmp_path):
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top")}, {})
        path = tmp_path / "cg.json"
        path.write_bytes(_cg_document(graph))
        doc = json.loads(path.read_text())
        assert doc["concepts"][0]["marker"] is None
        assert load_cg(path) == graph

    def test_cg_round_trips_over_generated_graphs(self, built, tmp_path):
        _, _, dataset, _ = built
        for index, graph in enumerate(dataset.graphs):
            path = tmp_path / f"cg{index}.json"
            path.write_bytes(_cg_document(graph))
            assert load_cg(path) == graph
            assert _cg_document(load_cg(path)) == path.read_bytes()

    def test_dangling_reference_rejected(self, tmp_path):
        path = tmp_path / "cg.json"
        path.write_text(
            json.dumps(
                {
                    "formatVersion": "3.0.0",
                    "kind": "cg",
                    "concepts": [],
                    "relations": [{"id": "r0", "type": "t", "args": ["ghost"]}],
                }
            )
        )
        with pytest.raises(StructureError, match="ghost"):
            load_cg(path)

    def test_gamma_round_trip(self, built, tmp_path):
        _, gammas, _, _ = built
        for gcg in gammas:
            path = tmp_path / f"{gcg.name}.json"
            save_gamma_cg(path, gcg)
            assert load_gamma_cg(path) == gcg

    def test_gamma_domain_with_missing_type_fails_on_load(self, built, tmp_path):
        vocab, _, _, _ = built
        graph = ConceptualGraph({"c0": ConceptNode("c0", "Top")}, {})
        gcg = GammaCG(
            "bad",
            graph,
            (Variable("v1", VariableTarget(TARGET_CONCEPT_TYPE, "c0"), ("NoSuchType",)),),
        )
        path = tmp_path / "bad.json"
        save_gamma_cg(path, gcg)
        loaded = load_gamma_cg(path)  # loading checks the document, not the vocabulary
        assert loaded == gcg
        problems = validate_gamma(vocab, loaded)
        assert len(problems) == 1 and "'NoSuchType' is not admissible" in problems[0]

    def test_wrong_kind_rejected(self, built, tmp_path):
        vocab, _, _, _ = built
        path = tmp_path / "voc.json"
        save_vocabulary(path, vocab)
        with pytest.raises(FormatError, match="expected kind"):
            load_cg(path)


class TestDatasetFormat:
    def test_round_trip_and_stats_agreement(self, built, tmp_path):
        _, _, dataset, config = built
        directory = tmp_path / "ds"
        save_dataset(
            directory,
            dataset.graphs,
            config=config,
            provenances=dataset.provenances,
            stats=compute_stats(dataset.graphs),
        )
        loaded = load_dataset(directory)
        assert loaded.graphs == dataset.graphs
        assert compute_stats(loaded.graphs) == loaded.stats
        assert loaded.config["maxCGs"] == config.max_cgs
        assert loaded.config["seed"] == config.seed
        derivations = (directory / "derivations.jsonl").read_text(encoding="utf-8")
        assert derivations == derivations_text(dataset.provenances)

    def test_byte_determinism(self, built, tmp_path):
        _, _, dataset, config = built
        one, two = tmp_path / "one", tmp_path / "two"
        for directory in (one, two):
            save_dataset(
                directory,
                dataset.graphs,
                config=config,
                provenances=dataset.provenances,
                stats=compute_stats(dataset.graphs),
            )
        files_one = sorted(p.name for p in one.iterdir())
        files_two = sorted(p.name for p in two.iterdir())
        assert files_one == files_two
        for name in files_one:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    @pytest.mark.parametrize("batch_bytes", [0, 3000])
    def test_batch_size_leaves_the_bytes(self, built, tmp_path, monkeypatch, batch_bytes):
        # Each CG document alone, or a few per batch, instead of all in one batch.
        _, _, dataset, config = built
        cgs = list(zip(dataset.graphs, dataset.provenances))
        write_dataset(tmp_path / "one", cgs, config)
        monkeypatch.setattr(formats, "_BATCH_BYTES", batch_bytes)
        write_dataset(tmp_path / "two", cgs, config)
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    @pytest.mark.parametrize("bound", ["each-alone", "split", "default"])
    def test_read_batch_size_leaves_the_cgs(self, built, tmp_path, monkeypatch, bound):
        # Each CG read alone, the first two in one batch, or all in one batch.
        _, _, dataset, config = built
        write_dataset(tmp_path, zip(dataset.graphs, dataset.provenances), config)
        read_bytes = {
            "each-alone": 0,
            "split": batch_text(tmp_path, 2),
            "default": formats._READ_BATCH_BYTES,
        }[bound]
        batches = []
        real = formats._batches

        def recorded(*args):
            for batch in real(*args):
                batches.append([name for name, *_ in batch])
                yield batch

        monkeypatch.setattr(formats, "_READ_BATCH_BYTES", read_bytes)
        monkeypatch.setattr(formats, "_batches", recorded)
        expected = [(f"cg-{index:04d}.json", graph) for index, graph in enumerate(dataset.graphs)]
        assert list(iter_dataset(tmp_path)) == expected
        names = [name for name, _ in expected]
        assert [name for batch in batches for name in batch] == names
        if bound == "each-alone":
            assert batches == [[name] for name in names]
        elif bound == "split":
            assert batches[0] == names[:2] and len(batches) > 1
        else:
            assert batches == [names]

    def test_manifest_count_mismatch_rejected(self, built, tmp_path):
        _, _, dataset, config = built
        directory = tmp_path / "ds"
        save_dataset(
            directory,
            dataset.graphs,
            config=config,
            provenances=dataset.provenances,
            stats=compute_stats(dataset.graphs),
        )
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["cgFiles"] = manifest["cgFiles"][:-1]
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="cgFiles"):
            load_dataset(directory)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:-1], r"derivations\.jsonl: no line 6, the derivation of cg-0004"),
            (lambda lines: lines + [lines[-1]], "more lines than a header and one per CG"),
            (lambda lines: [], r"derivations\.jsonl:1:1: Expecting value"),
        ],
        ids=["line-missing", "line-extra", "empty-file"],
    )
    def test_one_derivation_line_per_cg(self, built, tmp_path, edit, message):
        _, _, dataset, config = built
        write_dataset(tmp_path, zip(dataset.graphs, dataset.provenances), config)
        path = tmp_path / "derivations.jsonl"
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        with pytest.raises(FormatError, match=message):
            load_dataset(tmp_path)

    def test_format_1_dataset_rejected(self, built, tmp_path):
        # Format 1 kept every CG's draws in one provenance.json; no loader reads it.
        _, _, dataset, config = built
        directory = tmp_path / "ds"
        write_dataset(directory, zip(dataset.graphs, dataset.provenances), config)
        path = directory / "manifest.json"
        doc = json.loads(path.read_text())
        doc.update(formatVersion="1.0.0", provenanceFile="provenance.json")
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="unsupported major version '1.0.0'"):
            load_dataset(directory)

    def test_iter_dataset_yields_each_cg_before_a_later_line_fault_is_raised(self, built, tmp_path):
        _, _, dataset, config = built
        write_dataset(tmp_path, zip(dataset.graphs, dataset.provenances), config)
        write(tmp_path, "derivations.jsonl:4", "null")
        cgs = iter_dataset(tmp_path)
        assert [next(cgs), next(cgs)] == [
            ("cg-0000.json", dataset.graphs[0]),
            ("cg-0001.json", dataset.graphs[1]),
        ]
        with pytest.raises(FormatError, match=r"jsonl:4: top-level value must be an object"):
            next(cgs)

    def test_line_not_utf8_is_raised_after_the_cgs_ahead_of_it(self, built, tmp_path):
        # Each line is decoded on its own, so the fault names its line and
        # byte, and the CGs of the lines before it are yielded first.
        _, _, dataset, config = built
        write_dataset(tmp_path, zip(dataset.graphs, dataset.provenances), config)
        path = tmp_path / "derivations.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5][:10] + b"\xff" + lines[5][11:]
        path.write_bytes(b"".join(lines))
        cgs = iter_dataset(tmp_path)
        assert [next(cgs) for _ in range(4)] == [
            (f"cg-{index:04d}.json", graph) for index, graph in enumerate(dataset.graphs[:4])
        ]
        message = f"{path}:6: not UTF-8 text: invalid start byte at byte 10"
        with pytest.raises(FormatError) as raised:
            next(cgs)
        assert str(raised.value) == message

    def test_derivations_file_is_no_document(self, built, tmp_path):
        # It is not one JSON value, yet its header line names its kind.
        _, _, dataset, config = built
        write_dataset(tmp_path, zip(dataset.graphs, dataset.provenances), config)
        with pytest.raises(FormatError, match="cannot load documents of kind 'derivations'"):
            load_document(tmp_path / "derivations.jsonl")

    def test_provenance_count_mismatch_rejected_on_save(self, built, tmp_path):
        _, _, dataset, config = built
        with pytest.raises(FormatError, match="provenances cover 4 CGs but 5"):
            save_dataset(
                tmp_path / "ds",
                dataset.graphs,
                config=config,
                provenances=dataset.provenances[:-1],
                stats=compute_stats(dataset.graphs),
            )



def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _drop(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    del doc[keys[-1]]


class TestEntryLoaders:
    """The CG and derivations loaders check in bulk, then locate the first bad entry."""

    @pytest.fixture
    def directory(self, built, tmp_path):
        _, _, dataset, config = built
        directory = tmp_path / "ds"
        save_dataset(
            directory,
            dataset.graphs,
            config=config,
            provenances=dataset.provenances,
            stats=compute_stats(dataset.graphs),
        )
        return directory

    @pytest.mark.parametrize(
        "file_name, edit, message",
        [
            (
                "cg-0000.json",
                lambda doc: _set(doc, ["concepts", 1], "c1"),
                r"concepts\[1\] must be an object",
            ),
            (
                "cg-0000.json",
                lambda doc: _set(doc, ["relations", 0], ["r0"]),
                r"relations\[0\] must be an object",
            ),
            (
                "cg-0000.json",
                lambda doc: _set(doc, ["concepts", 0, "id"], 5),
                r"field concepts\[0\]\.id must be str, found int",
            ),
            (
                "cg-0000.json",
                lambda doc: _drop(doc, ["relations", 0, "type"]),
                r"missing field relations\[0\]\.type",
            ),
            (
                "cg-0000.json",
                lambda doc: _set(doc, ["concepts", 0, "marker"], 3),
                r"concepts\[0\]\.marker must be a string or null",
            ),
            (
                "cg-0000.json",
                lambda doc: _set(doc, ["relations", 0, "args"], "c0"),
                r"field relations\[0\]\.args must be list, found str",
            ),
            (
                "cg-0000.json",
                # Two bad entries: the first one is named.
                lambda doc: (
                    _set(doc, ["concepts", 2, "type"], None),
                    _drop(doc, ["concepts", 1, "id"]),
                ),
                r"missing field concepts\[1\]\.id",
            ),
            (
                "derivations.jsonl:2",
                lambda doc: _set(doc, ["draws", 0], 1),
                r"derivations\.jsonl:2: draws\[0\] must be an object",
            ),
            (
                "derivations.jsonl:2",
                lambda doc: _set(doc, ["draws", 0, "merged"], []),
                r"field draws\[0\]\.merged must be dict, found list",
            ),
            (
                "derivations.jsonl:2",
                lambda doc: _set(doc, ["draws", 0, "skippedMerges"], {"c2": "c0"}),
                r"field draws\[0\]\.skippedMerges\.c2 must be list, found str",
            ),
            (
                "derivations.jsonl:2",
                lambda doc: _set(doc, ["draws", 0, "skippedMerges"], {"c2": ["c0", 1]}),
                r"draws\[0\]\.skippedMerges\.c2\[1\] must be str, found int",
            ),
            (
                "derivations.jsonl:2",
                lambda doc: _set(doc, ["draws", 0, "merged"], {"c2": 1}),
                r"field draws\[0\]\.merged\.c2 must be str, found int",
            ),
            (
                "derivations.jsonl:2",
                # A format-2 line: each merge a [marker, kept, absorbed] triple.
                lambda doc: _set(doc, ["draws", 0, "merged"], [["m", "c0", "c2"]]),
                r"field draws\[0\]\.merged must be dict, found list",
            ),
        ],
        ids=[
            "concept-not-object",
            "relation-not-object",
            "int-id",
            "missing-type",
            "int-marker",
            "string-args",
            "first-of-two",
            "draw-not-object",
            "merged-not-object",
            "skipped-value-not-array",
            "skipped-kept-int",
            "merged-kept-int",
            "merged-format-2-triples",
        ],
    )
    def test_malformed_entry_is_format_error(self, directory, file_name, edit, message):
        doc = json.loads(read(directory, file_name))
        edit(doc)
        write(directory, file_name, json.dumps(doc))
        with pytest.raises(FormatError, match=message):
            load_dataset(directory)
        assert main(["stats", str(directory)]) == 2

    def test_lenient_shapes_still_load(self, built, directory):
        cg_path = directory / "cg-0000.json"
        doc = json.loads(cg_path.read_text())
        del doc["concepts"][0]["marker"]
        cg_path.write_text(json.dumps(doc))
        assert load_cg(cg_path).concepts[doc["concepts"][0]["id"]].marker is None
        doc["concepts"] = doc["relations"] = []
        cg_path.write_text(json.dumps(doc))
        assert load_cg(cg_path) == ConceptualGraph({}, {})
        path = directory / "derivations.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = '{"draws": []}\n'
        path.write_text("".join(lines))
        _, _, dataset, _ = built
        expected = derivations_text([GenerationProvenance(()), *dataset.provenances[1:]])
        assert path.read_text() == expected
        assert load_dataset(directory).graphs[0] == ConceptualGraph({}, {})


def _json_type(table, plural=""):
    """The "JSON type" column of docs/formats.md for one table row."""
    kinds = table["type"] if isinstance(table["type"], list) else [table["type"]]
    text = " or ".join(kind for kind in kinds if kind != "null") + plural
    if "maximum" in table:
        text = "finite " + text
    if "minimum" in table:
        text += f" >= {table['minimum']}"
    inner = table.get("items", table.get("additionalProperties"))
    if inner is not None:
        text += f" of {_json_type(inner, 's')}"
    return text + " or null" if "null" in kinds else text


def _field_rows(table, prefix=""):
    """(field, JSON type, required) for every property of ``table``, depth first."""
    for key, row in table.get("properties", {}).items():
        name = prefix + key
        yield name, _json_type(row), "yes" if key in table["required"] else "no"
        yield from _field_rows(row, name + ".")
        yield from _field_rows(row.get("items", {}), name + "[].")


# The table of each document of the parity guard; the derivations header has none.
KINDS = {
    "vocabulary.json": "vocabulary",
    "gamma/gcg-0.json": "gamma-cg",
    "dataset/cg-0000.json": "cg",
    "dataset/manifest.json": "dataset-manifest",
    "dataset/derivations.jsonl:2": "derivations",
}


class TestFieldTables:
    """The loaders' field tables: the documentation and the interpreter's two checks."""

    def test_docs_list_every_field_of_every_table(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        documented = {}
        for section in text.split("\n## ")[1:]:
            kind, _, body = section.partition("\n")
            rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| (yes|no) \|$", body, re.MULTILINE)
            if rows:
                documented[kind] = rows
        expected = {kind: list(_field_rows(table)) for kind, table in formats._TABLES.items()}
        assert documented == expected

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        """Every document of a small output, with each single-field fault of the parity guard.

        The first draw of a CG merges nothing, so two more faults break a
        merge entry; four more break a bound, which no change of type does.
        """
        out = generate(tmp_path_factory.mktemp("tables"))
        mutated_documents = [
            (
                document,
                case_id(document, path, mutation),
                json.loads(mutated(read(out, document), path, mutation)),
            )
            for document, path, mutation in cases(out)
            if document in KINDS
        ]
        for label, entry in [("a null kept id", None), ("kept ids in an array", ["c0"])]:
            line = json.loads(read(out, "dataset/derivations.jsonl:2"))
            merged = next(draw for draw in line["draws"] if draw["merged"])["merged"]
            merged[next(iter(merged))] = entry
            mutated_documents.append(("dataset/derivations.jsonl:2", label, line))
        line = json.loads(read(out, "dataset/derivations.jsonl:2"))
        steps = line["draws"][0]["specialisations"]
        steps[next(iter(steps))] = -7
        mutated_documents.append(("dataset/derivations.jsonl:2", "a negative step", line))
        for label, edit in [
            ("a NaN mean", lambda doc: doc["stats"]["nbNodes"].update(mean=float("nan"))),
            ("a negative deviation", lambda doc: doc["stats"]["nbNodes"].update(stddev=-1.0)),
            ("no CG at all", lambda doc: doc["config"].update(maxCGs=0)),
        ]:
            manifest = json.loads((out / "dataset" / "manifest.json").read_text())
            edit(manifest)
            mutated_documents.append(("dataset/manifest.json", label, manifest))
        return mutated_documents

    def test_bulk_check_fails_exactly_when_the_locator_raises(self, documents):
        located = 0
        for document, label, doc in documents:
            checks = [KINDS[document]]
            if KINDS[document] in ("cg", "gamma-cg"):
                checks.append("arguments")
            for kind in checks:
                try:
                    bulk = formats._BULK[kind]([doc], {})
                except KeyError:
                    bulk = False
                try:
                    formats._locate(formats._CHECKED[kind], doc, Path(document), "")
                except FormatError:
                    located += 1
                    assert not bulk, label
                else:
                    assert bulk, label
        assert located > len(documents) / 2


@pytest.mark.parametrize(
    "table",
    [
        {"type": "integer", "minimum": 0},
        {"type": "integer", "minimum": 1, "maximum": 3},
        {"type": "number", "minimum": 0, "maximum": 1e308},
    ],
)
def test_bounded_column_check_is_the_per_value_rule(table):
    # An integer column is bounded by its min and max; a number column keeps
    # the per-value test, which a NaN fails wherever it sits.
    constraint = formats._constraint(table)
    low, high = table["minimum"], table.get("maximum", float("inf"))
    rng = fresh_rng("bounded-column")
    values = [-1, 0, 1, 2, 3, 4, 10**400]
    if table["type"] == "number":
        values += [0.5, float("nan"), float("inf"), -0.0]
    columns = [[]] + [[value] for value in values]
    columns += [rng.sample(values, rng.randint(2, 5)) for _ in range(200)]
    for column in columns:
        assert constraint(column) == all(low <= value <= high for value in column), column
    if table["type"] == "number":
        assert not constraint([1.0, float("nan"), 0.0])


class TestDotExport:
    def test_empty_graph(self):
        text = export_dot(ConceptualGraph({}, {}))
        assert text == "graph cg {\n}\n"
        parse_dot(text)

    def test_arity_three_relation(self):
        graph = ConceptualGraph(
            {
                "c0": ConceptNode("c0", "A", "m0"),
                "c1": ConceptNode("c1", "B"),
                "c2": ConceptNode("c2", "C"),
            },
            {"r0": RelationNode("r0", "rel", ("c0", "c1", "c2"))},
        )
        text = export_dot(graph)
        nodes, edges = parse_dot(text)
        assert len(nodes) == 4
        assert sorted(shape for shape in nodes.values()) == [
            "box",
            "box",
            "box",
            "ellipse",
        ]
        assert sorted(edges) == [("r0", "c0", 0), ("r0", "c1", 1), ("r0", "c2", 2)]
        assert '"c0" [shape=box, label="A : m0"];' in text
        assert '"c1" [shape=box, label="B : *"];' in text

    def test_generated_graphs_parse(self, built):
        _, _, dataset, _ = built
        for graph in dataset.graphs:
            nodes, edges = parse_dot(export_dot(graph))
            assert len(nodes) == graph.size
