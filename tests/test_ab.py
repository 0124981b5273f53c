"""tools/ab.py: paired runs of two checkouts, medians, quartiles and wins."""

import importlib.util
import json
import os
import textwrap

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _checkout(root, name, rates, log):
    """A checkout whose perfbench/run.py reports the next of ``rates`` per run
    and appends the checkout's name to ``log``.
    """
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "throughput_per_s", "better": "higher"},
        {"name": "latency_ms_p50", "better": "lower"}]}))
    (path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import json
        rates = {rates!r}
        with open({str(log)!r}, "a") as fh:
            fh.write({name!r} + "\\n")
        with open({str(log)!r}) as fh:
            n = sum(line.strip() == {name!r} for line in fh) - 1
        rate = rates[n]
        print("env {{}}")
        print(f"metric samples_per_s {{rate!r}} 1/s")
        print(f"metric step_ms {{1000.0 / rate!r}} ms")
        print(f"metric host_slowdown 1.0 ratio")
        print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {{
            "throughput_per_s": {{"value": 2 * rate, "unit": "1/s"}},
            "latency_ms_p50": {{"value": 500.0 / rate, "unit": "ms"}}}}}}))
        """))
    return path


def test_pairs_alternate_and_report_quartiles_and_wins(tmp_path, capsys):
    log = tmp_path / "order.log"
    base = _checkout(tmp_path, "base", [10.0, 20.0, 30.0, 40.0], log)
    change = _checkout(tmp_path, "change", [15.0, 25.0, 35.0, 35.0], log)
    status = ab.main(["--base", str(base), "--change", str(change), "--pairs", "4",
                      "--workload", "score", "--seed", "1", "--seconds", "1"])
    assert status == 0
    assert log.read_text().split() == ["base", "change", "change", "base"] * 2
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    # inclusive quartiles of 10, 20, 30, 40 and of 15, 25, 35, 35
    assert "base 25 [17.5, 32.5]" in rows["samples_per_s"]
    assert "change 30 [22.5, 35]" in rows["samples_per_s"]
    assert rows["samples_per_s"].endswith("change won 3/4")
    # lower is better for times, from the unit and from BENCHMARK.json
    assert rows["step_ms"].endswith("change won 3/4")
    assert rows["latency_ms_p50"].endswith("change won 3/4")
    assert rows["throughput_per_s"].startswith("corrected")
    assert "base 50 [35, 65]" in rows["throughput_per_s"]
    # a ratio has no better side, and equal values count for neither
    assert rows["host_slowdown"].endswith("change won -")


def test_a_failing_run_fails_the_comparison(tmp_path, capsys):
    log = tmp_path / "order.log"
    base = _checkout(tmp_path, "base", [10.0], log)
    change = _checkout(tmp_path, "change", [10.0], log)
    (change / "perfbench" / "run.py").write_text(
        "print('metric x_per_s 1.0 1/s')\n"
        "print('{\"correct\": false, \"metrics\": {}}')\n")
    status = ab.main(["--base", str(base), "--change", str(change), "--pairs", "1",
                      "--workload", "train", "--seed", "1", "--seconds", "1"])
    assert status == 1
    assert "change: FAILED" in capsys.readouterr().err


def test_parse_output_and_arguments(tmp_path):
    raw, corrected, correct = ab.parse_output(
        "env {}\nmetric a_per_s 2.5 1/s\nshare x 1 %\n"
        '{"correct": true, "metrics": {"b": {"value": 3, "unit": "s"}}}\n')
    assert raw == {"a_per_s": (2.5, "1/s")}
    assert corrected == {"b": (3.0, "s")} and correct
    assert ab.parse_output("") == ({}, {}, False)
    assert ab.parse_output("metric a 1 s\nTraceback\n") == ({"a": (1.0, "s")}, {}, False)
    with pytest.raises(SystemExit):
        ab.parse_args(["--base", str(tmp_path), "--change", str(tmp_path),
                       "--pairs", "1", "--workload", "score", "--seed", "1",
                       "--seconds", "1"])
    assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
