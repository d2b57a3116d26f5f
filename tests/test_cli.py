"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.errors import XMLSyntaxError, error_code
from repro.workloads.purchase_orders import _po_xsd, make_purchase_order
from repro.xmltree.parser import parse
from repro.xmltree.serializer import write_file

from tests.skipfaults import faulty_orders

FAULTY = faulty_orders()


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "a.xsd").write_text(
        _po_xsd(billto_optional=True, quantity_max_exclusive=100)
    )
    (tmp_path / "b.xsd").write_text(
        _po_xsd(billto_optional=False, quantity_max_exclusive=100)
    )
    (tmp_path / "list.dtd").write_text(
        "<!ELEMENT list (item*)><!ELEMENT item (#PCDATA)>"
    )
    write_file(make_purchase_order(2), str(tmp_path / "po.xml"))
    write_file(
        make_purchase_order(2, with_billto=False),
        str(tmp_path / "po_nobill.xml"),
    )
    return tmp_path


class TestValidate:
    def test_valid_document(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"),
        ])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_document_exit_code(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po_nobill.xml"),
            "--schema", str(workspace / "b.xsd"),
        ])
        assert code == 1
        assert "INVALID" in capsys.readouterr().out

    def test_stats_flag(self, workspace, capsys):
        main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--stats",
        ])
        out = capsys.readouterr().out
        assert "nodes visited" in out

    def test_stats_are_the_dom_walk_counters(self, workspace, capsys):
        from repro.core.validator import validate_document
        from repro.schema.xsd import parse_xsd_file
        from repro.xmltree.parser import parse_file

        write_file(make_purchase_order(12), str(workspace / "po12.xml"))
        code = main([
            "validate", str(workspace / "po12.xml"),
            "--schema", str(workspace / "a.xsd"), "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        stats = validate_document(
            parse_xsd_file(str(workspace / "a.xsd")),
            parse_file(str(workspace / "po12.xml")),
        ).stats
        assert stats.nodes_visited > 12
        assert f"nodes visited:          {stats.nodes_visited}\n" in out
        assert (
            f"content symbols read:   {stats.content_symbols_scanned}\n"
            in out
        )
        assert (
            f"simple values checked:  {stats.simple_values_checked}\n"
            in out
        )

    def test_malformed_document_is_a_typed_error(self, workspace, capsys):
        doc = workspace / "broken.xml"
        doc.write_text("<purchaseOrder><oops")
        code = main([
            "validate", str(doc), "--schema", str(workspace / "a.xsd"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "[xml-syntax]" in captured.err
        assert "INVALID" not in captured.out

    @pytest.mark.parametrize(
        "command, retries, expected",
        [
            pytest.param("validate", 0, 2, id="0-2"),
            pytest.param("validate", 1, 0, id="1-0"),
            pytest.param("cast-with-mods", 0, 2, id="cast-with-mods-0-2"),
            pytest.param("cast-with-mods", 1, 0, id="cast-with-mods-1-0"),
        ],
    )
    def test_retries_cover_the_read(
        self, workspace, capsys, monkeypatch, command, retries, expected
    ):
        import repro.cli
        from repro.core import validator

        reader = validator if command == "validate" else repro.cli
        real = reader.read_document
        failures = []

        def flaky(path, limits):
            if not failures:
                failures.append(path)
                raise OSError("transient read failure")
            return real(path, limits)

        monkeypatch.setattr(reader, "read_document", flaky)
        if command == "validate":
            options = ["--schema", str(workspace / "a.xsd")]
        else:
            program = workspace / "rules.json"
            program.write_text("[]")
            options = [
                "--source", str(workspace / "a.xsd"),
                "--target", str(workspace / "b.xsd"),
                "--program", str(program),
            ]
        code = main([
            command, str(workspace / "po.xml"), *options,
            "--retries", str(retries),
        ])
        assert code == expected
        assert failures  # the first read did fail

    def test_dtd_schema(self, workspace, capsys):
        doc = workspace / "l.xml"
        doc.write_text("<list><item>x</item></list>")
        code = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
        ])
        assert code == 0

    def test_dtd_root_restriction(self, workspace):
        doc = workspace / "i.xml"
        doc.write_text("<item>x</item>")
        ok = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
        ])
        restricted = main([
            "validate", str(doc), "--schema", str(workspace / "list.dtd"),
            "--root", "list",
        ])
        assert ok == 0
        assert restricted == 1


class TestCast:
    def test_valid_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "subtrees skipped" in out

    def test_invalid_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 1

    def test_profile_parse_breakdown(self, workspace, capsys):
        # The kernel reads, parses, skims and validates in one loop:
        # the profile times that pass as one phase instead of
        # splitting it.
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "phase profile:" in captured.out
        assert "fused:" in captured.out
        assert "total:" in captured.out
        assert "parse:" not in captured.out
        assert captured.err == ""

    def test_profile_parse_directory_mode(self, workspace, capsys):
        # Batch workers run the same kernel: same shape.
        batch_dir = workspace / "batch"
        batch_dir.mkdir()
        write_file(make_purchase_order(1), str(batch_dir / "one.xml"))
        write_file(make_purchase_order(2), str(batch_dir / "two.xml"))
        code = main([
            "cast", str(batch_dir),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out
        assert "fused:" in out
        assert "parse:" not in out

    def test_profile_parse_stream_skip_reports_fused_phase(
        self, workspace, capsys
    ):
        # The profiled pass is the fused one: shipTo, billTo and items
        # are subsumed and drained inside the one timed phase.
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse", "--stats",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "subtrees skipped:       3\n" in captured.out
        assert "phase profile:" in captured.out
        assert "fused:" in captured.out
        assert "total:" in captured.out
        assert "parse:" not in captured.out
        assert captured.err == ""

    def test_profile_parse_stream_skip_directory_reports_fused_phase(
        self, workspace, capsys
    ):
        # Batch workers drain the same subtrees in the same one phase.
        batch_dir = workspace / "batch"
        batch_dir.mkdir()
        write_file(make_purchase_order(1), str(batch_dir / "one.xml"))
        code = main([
            "cast", str(batch_dir),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--profile-parse", "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "subtrees skipped:       3\n" in out
        assert "phase profile:" in out
        assert "fused:" in out
        assert "parse:" not in out


class TestZeroSubsumptionCast:
    """Four hand-made documents under the zero-subsumption pair, where
    the cast skips nothing and checks every value."""

    #: name -> (exit status, what the answer carries).
    EXPECTED = {
        "valid": (0, ": valid\n"),
        "truncated": (2, "[xml-syntax]"),
        "bad-quantity": (1, "'150' does not conform"),
        # Rejected before the cut: the kernel stops at its first
        # failure, so the rejection, not the syntax error, answers.
        "bad-quantity-cut-tail": (1, "'150' does not conform"),
    }

    @pytest.fixture()
    def zero_sub(self, tmp_path):
        from repro.workloads.purchase_orders import (
            _PO_XSD_ZERO_SUBSUMPTION,
        )
        from repro.xmltree.serializer import serialize

        (tmp_path / "source.xsd").write_text(
            _po_xsd(billto_optional=False, quantity_max_exclusive=200)
        )
        (tmp_path / "target.xsd").write_text(_PO_XSD_ZERO_SUBSUMPTION)
        corpus = tmp_path / "docs"
        corpus.mkdir()
        bad = serialize(
            make_purchase_order(
                3, quantity_of=lambda i: 150 if i == 1 else 7
            ),
            indent="  ",
        )
        texts = {
            "valid": serialize(make_purchase_order(3), indent="  "),
            "truncated": "<purchaseOrder><shipTo>",
            "bad-quantity": bad,
            "bad-quantity-cut-tail": bad[: bad.index(
                "</item>", bad.index("<quantity>150</quantity>")
            )],
        }
        for name, text in texts.items():
            (corpus / f"{name}.xml").write_text(text)
        return tmp_path

    def schemas(self, root):
        return [
            "--source", str(root / "source.xsd"),
            "--target", str(root / "target.xsd"),
        ]

    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_single_file(self, zero_sub, capsys, name):
        code = main([
            "cast", str(zero_sub / "docs" / f"{name}.xml"),
            *self.schemas(zero_sub),
        ])
        status, answer = self.EXPECTED[name]
        assert code == status
        captured = capsys.readouterr()
        assert answer in (captured.err if status == 2 else captured.out)

    def test_directory(self, zero_sub, capsys):
        from repro.core.batch import validate_directory
        from repro.schema.registry import SchemaPair
        from repro.schema.xsd import parse_xsd_file

        pair = SchemaPair(
            parse_xsd_file(str(zero_sub / "source.xsd")),
            parse_xsd_file(str(zero_sub / "target.xsd")),
        )
        batch = validate_directory(pair, str(zero_sub / "docs"))
        codes = {
            os.path.basename(result.path): result.error_code
            for result in batch.results
        }
        assert codes == {
            "bad-quantity-cut-tail.xml": "",
            "bad-quantity.xml": "",
            "truncated.xml": "xml-syntax",
            "valid.xml": "",
        }
        code = main(["cast", str(zero_sub / "docs"), *self.schemas(zero_sub)])
        assert code == 1
        out = capsys.readouterr().out
        assert "1/4 valid" in out
        assert "[xml-syntax]" in out


class TestRepair:
    def test_repair_writes_valid_output(self, workspace, capsys):
        out_path = workspace / "fixed.xml"
        code = main([
            "repair", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "-o", str(out_path),
        ])
        assert code == 0
        assert "1 repairs" in capsys.readouterr().out
        assert main([
            "validate", str(out_path), "--schema", str(workspace / "b.xsd"),
        ]) == 0

    def test_noop_repair(self, workspace, capsys):
        code = main([
            "repair", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 0
        assert "already valid" in capsys.readouterr().out


class TestRelationsAndGen:
    def test_relations_output(self, workspace, capsys):
        code = main([
            "relations",
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "R_sub" in out and "USAddress <= USAddress" in out

    def test_gen_po_to_file(self, workspace, capsys):
        out_path = workspace / "gen.xml"
        code = main(["gen-po", "5", "-o", str(out_path)])
        assert code == 0
        assert main([
            "validate", str(out_path), "--schema", str(workspace / "a.xsd"),
        ]) == 0

    def test_gen_po_to_stdout(self, capsys):
        code = main(["gen-po", "1"])
        assert code == 0
        assert "<purchaseOrder>" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "nope.xml"),
            "--schema", str(workspace / "a.xsd"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_schema(self, workspace, capsys):
        bad = workspace / "bad.xsd"
        bad.write_text("<xsd:schema><oops")
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(bad),
        ])
        assert code == 2


class TestGuardKnobs:
    @pytest.mark.parametrize(
        "option,value",
        [
            ("--max-depth", "0"),
            ("--max-bytes", "0"),
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--retries", "-1"),
        ],
    )
    def test_bad_values_are_usage_errors(
        self, workspace, capsys, option, value
    ):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), option, value,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_depth_limit_trips(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--max-depth", "2",
        ])
        assert code == 2
        assert "max_tree_depth" in capsys.readouterr().err

    def test_validate_size_limit_trips(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"), "--max-bytes", "16",
        ])
        assert code == 2
        assert "max_document_bytes" in capsys.readouterr().err

    def test_generous_limits_pass(self, workspace, capsys):
        code = main([
            "validate", str(workspace / "po.xml"),
            "--schema", str(workspace / "a.xsd"),
            "--max-depth", "100", "--max-bytes", "1000000",
            "--timeout", "60", "--retries", "2",
        ])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_cast_depth_limit_trips(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--max-depth", "1",
        ])
        assert code == 2
        assert "max_tree_depth" in capsys.readouterr().err

    def test_cast_directory_reports_limit_errors_per_document(
        self, workspace, capsys
    ):
        corpus = workspace / "corpus"
        corpus.mkdir()
        write_file(make_purchase_order(1), str(corpus / "ok.xml"))
        (corpus / "deep.xml").write_text("<a>" * 60 + "</a>" * 60)
        code = main([
            "cast", str(corpus),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--max-depth", "50",
        ])
        out = capsys.readouterr().out
        assert code == 1  # the deep document fails, the rest validate
        assert "deep.xml" in out

    def test_cast_missing_directory_is_an_error(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "no-such-dir" / "x"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStreamingFlags:
    def test_validate_streaming_flag_is_gone(self, workspace, capsys):
        # validate has one engine, the fused kernel; --streaming went.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "validate", str(workspace / "po.xml"),
                "--schema", str(workspace / "a.xsd"), "--streaming",
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --streaming" in (
            capsys.readouterr().err
        )

    def test_streaming_cast(self, workspace, capsys):
        # --stats prints the kernel's own counters.
        from repro.core.cast import cast_file
        from repro.schema.registry import SchemaPair
        from repro.schema.xsd import parse_xsd_file

        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        stats = cast_file(
            SchemaPair(
                parse_xsd_file(str(workspace / "a.xsd")),
                parse_xsd_file(str(workspace / "b.xsd")),
            ),
            str(workspace / "po.xml"),
        ).stats
        assert f"nodes visited:          {stats.nodes_visited}\n" in out
        assert (
            f"subtrees skipped:       {stats.subtrees_skipped}\n" in out
        )

    def test_streaming_cast_invalid(self, workspace, capsys):
        # The kernel prints the DOM cast's verdict line, reason included.
        from repro.core.cast import CastValidator
        from repro.schema.registry import SchemaPair
        from repro.schema.xsd import parse_xsd_file
        from repro.xmltree.parser import parse_file

        doc = str(workspace / "po_nobill.xml")
        assert main([
            "cast", doc,
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ]) == 1
        dom = CastValidator(SchemaPair(
            parse_xsd_file(str(workspace / "a.xsd")),
            parse_xsd_file(str(workspace / "b.xsd")),
        )).validate(parse_file(doc))
        assert not dom.valid
        assert capsys.readouterr().out == f"{doc}: INVALID — {dom.reason}\n"

    def test_cast_streaming_flag_is_gone(self, workspace, capsys):
        self.assert_cast_flag_is_gone(workspace, capsys, ["--streaming"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stream-skip"],
            ["--no-string-cast"],
            ["--memo"],
            ["--no-memo"],
            ["--memo-size", "64"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_deleted_cast_flag_is_gone(self, workspace, capsys, flags):
        # One cast engine for files, the fused kernel: the flags that
        # picked another engine or tuned the DOM route's memo are gone.
        self.assert_cast_flag_is_gone(workspace, capsys, flags)

    @staticmethod
    def assert_cast_flag_is_gone(workspace, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "cast", str(workspace / "po.xml"),
                "--source", str(workspace / "a.xsd"),
                "--target", str(workspace / "b.xsd"),
                *flags,
            ])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "mode", ["stream-skip", "chain", "cast-with-mods"]
    )
    def test_oversized_file_rejected_before_reading(
        self, workspace, capsys, mode
    ):
        # Every cast path rejects on the on-disk size, naming the file,
        # before the document is buffered ("stream-skip" is the plain
        # ``cast FILE``, one kernel pass).  The bound sits
        # above the schema files (which load under the same limits).
        source, target = str(workspace / "a.xsd"), str(workspace / "b.xsd")
        doc = workspace / "big.xml"
        write_file(make_purchase_order(60), str(doc))
        program = workspace / "rules.json"
        program.write_text("[]")
        bound = max(os.path.getsize(source), os.path.getsize(target))
        assert os.path.getsize(doc) > bound
        command, *options = {
            "stream-skip": ["cast", "--source", source, "--target", target],
            "chain": ["cast", "--chain", source, target],
            "cast-with-mods": ["cast-with-mods", "--source", source,
                               "--target", target,
                               "--program", str(program)],
        }[mode]
        code = main(
            [command, str(doc), *options, "--max-bytes", str(bound)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "[doc-too-large]" in err
        assert f"file {str(doc)!r} is" in err

    def test_stream_skip_cast(self, workspace, capsys):
        code = main([
            "cast", str(workspace / "po.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "subtrees skipped:       3\n" in out

    def test_stream_skip_cast_invalid(self, workspace, capsys):
        # shipTo and items are skipped; the missing billTo rejects the
        # order at its end tag.
        code = main([
            "cast", str(workspace / "po_nobill.xml"),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
            "--stats",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "subtrees skipped:       2\n" in out

    @pytest.mark.parametrize("name", sorted(FAULTY))
    def test_stream_skip_cast_hidden_fault_exits_2(
        self, workspace, capsys, name
    ):
        # shipTo and items are subsumed, so never validated, yet a fault
        # parse rejects there is a typed syntax error, exit status 2.
        doc = workspace / "faulty.xml"
        doc.write_text(FAULTY[name], encoding="utf-8")
        with pytest.raises(XMLSyntaxError) as raised:
            parse(FAULTY[name])
        code = main([
            "cast", str(doc),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{raised.value} [{error_code(raised.value)}]" in err

    def test_stream_skip_directory(self, workspace, capsys):
        code = main([
            "cast", str(workspace),
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])
        assert code == 1  # po_nobill.xml fails the required-billTo cast
        out = capsys.readouterr().out
        assert "1/2 valid" in out


class TestFleetFlags:
    """Multi-document input, recursion, checkpointing, and the uniform
    usage-error shape for every numeric knob."""

    @pytest.fixture()
    def corpus(self, workspace):
        batch_dir = workspace / "corpus"
        nested = batch_dir / "inner"
        nested.mkdir(parents=True)
        for index in range(3):
            write_file(
                make_purchase_order(1 + index),
                str(batch_dir / f"doc{index}.xml"),
            )
        write_file(make_purchase_order(2), str(nested / "deep.xml"))
        return batch_dir

    def cast(self, workspace, *extra):
        return main([
            "cast", *extra,
            "--source", str(workspace / "a.xsd"),
            "--target", str(workspace / "b.xsd"),
        ])

    def test_recursive_directory(self, workspace, corpus, capsys):
        assert self.cast(workspace, str(corpus), "--recursive") == 0
        assert "4/4 valid" in capsys.readouterr().out

    def test_non_recursive_stays_top_level(
        self, workspace, corpus, capsys
    ):
        assert self.cast(workspace, str(corpus)) == 0
        assert "3/3 valid" in capsys.readouterr().out

    def test_multiple_documents_and_exit_code(
        self, workspace, corpus, capsys
    ):
        # A failing document anywhere makes the whole invocation exit 1.
        code = self.cast(
            workspace, str(corpus), str(workspace / "po_nobill.xml")
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "3/3 valid" in out
        assert "INVALID" in out

    def test_multiple_directories_share_a_fleet(
        self, workspace, corpus, capsys
    ):
        other = workspace / "other"
        other.mkdir()
        write_file(make_purchase_order(1), str(other / "one.xml"))
        code = self.cast(
            workspace, str(corpus), str(other), "--jobs", "2"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 valid (jobs=2)" in out
        assert "1/1 valid (jobs=2)" in out

    def test_checkpoint_then_resume(self, workspace, corpus, capsys):
        journal = str(workspace / "run.ckpt.jsonl")
        assert self.cast(
            workspace, str(corpus), "--checkpoint", journal
        ) == 0
        capsys.readouterr()
        assert self.cast(
            workspace, str(corpus), "--checkpoint", journal, "--resume"
        ) == 0
        out = capsys.readouterr().out
        assert "3 of 3 restored" in out

    def test_resume_requires_checkpoint(self, workspace, corpus, capsys):
        assert self.cast(workspace, str(corpus), "--resume") == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpoint_needs_single_directory(
        self, workspace, corpus, capsys
    ):
        journal = str(workspace / "run.ckpt.jsonl")
        other = workspace / "other2"
        other.mkdir()
        assert self.cast(
            workspace, str(corpus), str(other), "--checkpoint", journal
        ) == 2
        assert "single directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--jobs", "0"),
            ("--chunk-size", "0"),
            ("--retries", "-1"),
            ("--timeout", "0"),
        ],
    )
    def test_knobs_share_the_usage_error_shape(
        self, workspace, capsys, option, value
    ):
        code = self.cast(
            workspace, str(workspace / "po.xml"), option, value
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {option} must be " in err
        assert f"got {value}" in err
