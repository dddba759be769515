"""Command-line behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from symorbit import cli
from symorbit.cli import main
from symorbit.partitions import dominance_covers, enumerate_partitions, format_partition
from symorbit.strata import strata_report
from symorbit.verify import SUITES


def poset_payload(n):
    nodes, edges = cli._poset_data(n)
    return {"n": n, "edges": [list(e) for e in edges],
            "nodes": [{"partition": name, "normal": normal, "dim_orbit": dim}
                      for name, normal, dim in nodes]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormal:
    def test_not_normal(self, capsys):
        code, out, _ = run(capsys, "normal", "2")
        assert code == 0
        assert out.strip() == "NOT normal (step at row 1)"

    def test_normal_with_certificate(self, capsys):
        code, out, _ = run(capsys, "normal", "2,1", "--certify")
        assert code == 0
        assert out.strip() == "normal; min gap 2"

    def test_plain_normal(self, capsys):
        code, out, _ = run(capsys, "normal", "1,1,1")
        assert code == 0
        assert out.strip() == "normal"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "normal", "2,1", "--certify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "lambda": [2, 1],
            "min_gap_num4": 8,
            "normal": True,
            "witness": None,
        }

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "normal", "1,3")
        assert code == 2
        assert "error" in err

    def test_certify_beyond_bound_still_answers(self, capsys):
        code, out, err = run(capsys, "normal", "13", "--certify")
        assert code == 0
        assert out.strip() == "NOT normal (step at row 1)"
        assert "bound" in err

    def test_certify_within_raised_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBIT_LAMBDA_BOUND", "13")
        code, out, err = run(capsys, "normal", "13", "--certify")
        assert code == 0
        assert out == "NOT normal (step at row 1); min gap -8\n"
        assert err == ""

    def test_negative_environment_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBIT_LAMBDA_BOUND", "-3")
        code, out, err = run(capsys, "normal", "2,1", "--certify")
        assert code == 2
        assert out == ""
        assert "ORBIT_LAMBDA_BOUND" in err


class TestStrata:
    def test_two_rows(self, capsys):
        code, out, _ = run(capsys, "strata", "2,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header plus two strata
        assert "dimM=3" in lines[0] and "dimN=1" in lines[0]
        assert sum(1 for line in lines[1:] if line.lstrip().startswith("*")) == 1
        assert any("dim=2" in line for line in lines[1:])
        assert any("dim=0" in line for line in lines[1:])

    def test_single(self, capsys):
        code, out, _ = run(capsys, "strata", "1")
        assert code == 0
        rows = [line for line in out.strip().splitlines()[1:]]
        assert len(rows) == 1 and "dim=0" in rows[0]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "strata", "3,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["dimM", "dimN", "dims", "lambda", "strata", "t"]
        assert payload["lambda"] == [3, 1]
        assert payload["dims"] == [4, 2, 1, 0]
        for row in payload["strata"]:
            assert sorted(row) == ["dim_num4", "mu", "tau"]

    # sha256 of `strata lam --format json` then `strata lam` for every lam of
    # 1..7 in enumeration order; any change to a row, its order or its
    # dimension moves it.
    STRATA_DIGEST = "4bc79ca4a6bc76efd475c56056e63318f2f8cf0d47cb6daa5628f7a99e84ff11"

    def test_tables_pinned(self, capsys):
        digest = hashlib.sha256()
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                text = format_partition(lam)
                for argv in (("strata", text, "--format", "json"), ("strata", text)):
                    code, out, _ = run(capsys, *argv)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == self.STRATA_DIGEST

    @staticmethod
    def text_table(report):
        # reference text format, built from strata_report's rows
        lam = report["lambda"]
        lines = [
            f"lambda={format_partition(tuple(lam))}  n={sum(lam)}  t={report['t']}"
            f"  dims={','.join(map(str, report['dims']))}"
            f"  dimM={report['dimM']}  dimN={report['dimN']}"
        ]
        for row in report["strata"]:
            marker = "*" if row["mu"] == lam else " "
            lines.append(
                f" {marker} {' | '.join(row['tau'])}    mu={format_partition(tuple(row['mu']))}"
                f"  dim={Fraction(row['dim_num4'], 4)}"
            )
        return "".join(line + "\n" for line in lines)

    def test_streamed_tables_match_report(self, capsys):
        # both formats are written from the row stream, not from strata_report
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                report = strata_report(lam)
                text = format_partition(lam)
                code, out, _ = run(capsys, "strata", text, "--format", "json")
                assert code == 0
                assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", lam
                code, out, _ = run(capsys, "strata", text)
                assert code == 0
                assert out == self.text_table(report), lam

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_rows_not_held(self, monkeypatch, fmt):
        # (7) has 8,419 rows; streamed, the peak stays far below the
        # table's few MB once the diagram tables are cached
        class Sink:
            def write(self, text):
                return len(text)

        monkeypatch.setattr("sys.stdout", Sink())
        argv = ["strata", "7", "--format", fmt]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "strata", "13")
        assert code == 2
        assert "bound" in err

    @pytest.mark.parametrize("lam", ["9", "12"])
    def test_label_budget_exceeded(self, capsys, lam):
        # counted, not listed: (9) has 1.9e6 labels, (12) 4.2e10
        start = time.perf_counter()
        code, out, err = run(capsys, "strata", lam, "--format", "json")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "stratum labels" in err and "bound" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "diff_usef", "--max-n", "6")
        assert code == 0
        assert "ok" in out and "diff_usef" in out

    def test_unknown_lemma(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown lemma" in err

    def test_over_cap(self, capsys):
        code, _, err = run(capsys, "verify", "comb_big", "--max-n", "11")
        assert code == 2

    def test_all_json(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "5", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["lemma_id"] for r in reports] == list(SUITES)
        assert all(r["ok"] for r in reports)
        assert all(type(r["elapsed_s"]) is float for r in reports)

    def test_deterministic_json(self, capsys):
        scrub = lambda text: re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', text)
        _, first, _ = run(capsys, "verify", "all", "--max-n", "4", "--format", "json")
        _, second, _ = run(capsys, "verify", "all", "--max-n", "4", "--format", "json")
        assert scrub(first) == scrub(second)

    # sha256 of `verify all --format json --max-n K` without its elapsed_s
    # lines; a change to any suite's report, count or order moves them.
    CONTRACT = {
        0: "49000844cf1e946f9ad96cbd203695481cf39bf26f9b24e81d9aaf6496f10d52",
        6: "f19808b655f8edb92e62b4db8326bf659c79a769f48998452fda75b569f23103",
        99: "bb655a721280e565a6c8d3a77f541096bd55cfbc9cdf9abeea84a703dd4909de",
    }

    @pytest.mark.parametrize("max_n", sorted(CONTRACT))
    def test_behaviour_contract(self, capsys, max_n):
        code, out, _ = run(capsys, "verify", "all", "--format", "json", "--max-n", str(max_n))
        assert code == 0
        kept = "".join(line for line in out.splitlines(True) if '"elapsed_s"' not in line)
        assert hashlib.sha256(kept.encode()).hexdigest() == self.CONTRACT[max_n]

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        import symorbit.verify as verify_module

        fake = verify_module._Suite(
            lambda n: [((2,),)],
            lambda lam: [{"lambda": list(lam), "problem": "planted"}],
            5, 5, 5, "planted failure",
            covers=lambda lam: 3,
        )
        monkeypatch.setitem(SUITES, "fake", fake)
        code, out, _ = run(capsys, "verify", "fake")
        assert code == 1
        assert "FAIL" in out and "planted" in out
        code_json, out_json, _ = run(capsys, "verify", "fake", "--format", "json")
        assert code_json == 1
        assert not json.loads(out_json)[0]["ok"]

    def test_full_counterexamples(self, capsys, monkeypatch):
        import symorbit.verify as verify_module

        # q raised to c + 1 on every strict pair: one "c < q" record each
        qcr = verify_module._qcr
        monkeypatch.setattr(verify_module, "_qcr", lambda table, i, j: (
            qcr(table, i, j)[1] + (i != j), *qcr(table, i, j)[1:]))
        argv = ("verify", "qcr_identities", "--max-n", "8", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        [capped] = json.loads(out)
        code, out, _ = run(capsys, *argv, "--full-counterexamples")
        assert code == 1
        [full] = json.loads(out)
        assert len(full["counterexamples"]) == 405
        assert "extras" not in full
        assert capped["counterexamples"] == full["counterexamples"][:10]
        assert capped["extras"] == {"counterexamples_total": 405}
        assert capped["instances_checked"] == full["instances_checked"] == 3207


class TestPoset:
    def test_dot_chain(self, capsys):
        code, out, _ = run(capsys, "poset", "3", "--format", "dot")
        assert code == 0
        assert out.count("->") == 2
        assert out.count("[shape=") == 3
        assert out.startswith("digraph")

    def test_text_edge_lines(self, capsys):
        code, out, _ = run(capsys, "poset", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dominance order on partitions of 6: 11 nodes, 12 edges"
        edges = [f"  {format_partition(lam)} > {format_partition(mu)}"
                 for lam, mu in dominance_covers(6)]
        assert lines[12:] == edges
        # (4,2) covers (4,1,1) and (3,3), in enumeration order
        assert edges[2:4] == ["  4,2 > 4,1,1", "  4,2 > 3,3"]

    # sha256 of `poset 10` in each format; any change to a node line, a
    # label, a tag or the edge order moves it
    POSET_10_DIGESTS = {
        "text": "90bee68d59894e9adc242bcadb2f168192ca905ad7f9ae3b3459dc5e534cdc1a",
        "dot": "8da430eb535c66d12f005b91db1bd6f3a3db3993fb35656b9401fda8cabf5de0",
    }

    @pytest.mark.parametrize("fmt", sorted(POSET_10_DIGESTS))
    def test_poset_10_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "poset", "10", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.POSET_10_DIGESTS[fmt]

    def test_single_node(self, capsys):
        code, out, _ = run(capsys, "poset", "1")
        assert code == 0
        assert "1 nodes, 0 edges" in out

    def test_json_n4(self, capsys):
        code, out, _ = run(capsys, "poset", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 5
        flags = {node["partition"]: node["normal"] for node in payload["nodes"]}
        # the 1-step test: only the two flat shapes qualify at n = 4
        assert flags == {
            "4": False,
            "3,1": False,
            "2,2": False,
            "2,1,1": True,
            "1,1,1,1": True,
        }
        dims = {node["partition"]: node["dim_orbit"] for node in payload["nodes"]}
        assert dims == {"4": 6, "3,1": 5, "2,2": 4, "2,1,1": 3, "1,1,1,1": 0}

    def test_edges_are_covers(self, capsys):
        for n in range(1, 9):
            code, out, _ = run(capsys, "poset", str(n), "--format", "json")
            assert code == 0
            payload = json.loads(out)
            got = {tuple(edge) for edge in payload["edges"]}
            expected = {
                (",".join(map(str, lam)), ",".join(map(str, mu)))
                for lam, mu in dominance_covers(n)
            }
            assert got == expected

    def test_edge_order_is_cover_order(self, capsys):
        for n in range(1, 11):
            _, out, _ = run(capsys, "poset", str(n), "--format", "json")
            expected = [[",".join(map(str, lam)), ",".join(map(str, mu))]
                        for lam, mu in dominance_covers(n)]
            assert json.loads(out)["edges"] == expected

    def test_node_order_is_enumeration_order(self, capsys):
        _, out, _ = run(capsys, "poset", "6", "--format", "json")
        payload = json.loads(out)
        expected = [",".join(map(str, lam)) for lam in enumerate_partitions(6)]
        assert [node["partition"] for node in payload["nodes"]] == expected

    def test_bounds(self, capsys):
        assert run(capsys, "poset", "41")[0] == 2
        assert run(capsys, "poset", "0")[0] == 2


class TestJsonWriter:
    """The JSON writers against json.dumps(sort_keys=True, indent=2)."""

    def test_write_json(self, capsys):
        # sorted keys, an indent of two, ASCII escapes and one newline at the end
        cli._write_json({"b": [1, {}, None], "a": "λ"})
        assert capsys.readouterr().out == '{\n  "a": "\\u03bb",\n  "b": [\n    1,\n    {},\n    null\n  ]\n}\n'

    def test_poset_payloads(self, capsys):
        # poset's own row writer, down to the empty edge list at n = 1
        for n in range(1, 13):
            _, out, _ = run(capsys, "poset", str(n), "--format", "json")
            assert out == json.dumps(poset_payload(n), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        {"dim": Fraction(1, 2)},
        [1, [Fraction(3)]],
        {"parts": {1, 2}},
        {"row": {(1, 2): 3}},
    ])
    def test_unserializable(self, capsys, obj):
        with pytest.raises(TypeError):
            cli._write_json(obj)

    @pytest.mark.parametrize("argv, payload, rows", [
        (["strata", "7"], lambda: strata_report((7,)), 1000),
        (["poset", "12"], lambda: poset_payload(12), 77 + 128),  # nodes + edges
    ], ids=["strata", "poset"])
    def test_streamed_in_small_writes(self, monkeypatch, argv, payload, rows):
        # one write per row: the whole document is never one string
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr("sys.stdout", Recorder())
        assert main([*argv, "--format", "json"]) == 0
        assert len(writes) > rows
        assert max(map(len, writes)) <= 4096
        expected = json.dumps(payload(), sort_keys=True, indent=2) + "\n"
        assert "".join(writes) == expected


class TestUsage:
    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normal", "2,1", "--format", "dot"])
        assert exc.value.code == 2
