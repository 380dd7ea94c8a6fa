"""Fast self-test of the benchmark: ``python3 bench/selftest.py``.

Runs every workload at reduced size, untraced and traced, and checks that
each metric declared in BENCHMARK.json is reported with its unit, that no
command fails, that every traced function is reached by some workload, that
a corrupted output is counted as failed, and that compare mode flags a
regression.  Takes about 20 s on two cores.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


class BenchSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.results = {(name, trace): run.run_workload(name, seed=3, seconds=0,
                                                       trace=trace, small=True)
                       for name in workloads.NAMES for trace in (False, True)}

    def test_spec_matches_the_runner(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.NAMES))
        self.assertEqual(SPEC["command"], ["python3", "bench/run.py"])

    def test_every_declared_metric_is_reported_with_its_unit(self):
        for (name, trace), result in self.results.items():
            declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(
                    {m["name"]: m["unit"] for m in declared},
                    {k: m["unit"] for k, m in result["metrics"].items()})

    def test_no_command_fails_at_this_commit(self):
        for (name, trace), result in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(result["errors"], [])
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["end_to_end"]["ok_frac"], 1.0)

    def test_every_traced_function_is_reached(self):
        for module, path, _ in tracing.TRACED:
            key = f"{tracing.span_name(module, path)}.calls"
            calls = sum(r["metrics"][key]["value"]
                        for (_, trace), r in self.results.items() if trace)
            self.assertGreater(calls, 0, key)

    def test_corrupted_outputs_count_as_failed(self):
        plan = workloads.build("export-io", seed=3, small=True)
        workdir = tempfile.mkdtemp(prefix="selftest-")
        cwd = os.getcwd()
        try:
            os.chdir(workdir)
            for fname, text in plan["inputs"].items():
                with open(fname, "w") as fh:
                    fh.write(text)
            outcomes, _ = child.run_commands(plan)

            def failed():
                return [i for i, (cmd, out) in enumerate(zip(plan["commands"], outcomes))
                        if checks.check_command(workdir, cmd, out)]

            self.assertEqual(failed(), [])
            with open("e0.grid.json") as fh:
                record = json.load(fh)
            record["grid"][1][2][0] += 1e-6            # one entry changed
            with open("e0.grid.json", "w") as fh:
                json.dump(record, fh)
            # the JSON grid itself, and both text exports checked against it
            self.assertEqual(failed(), [0, 1, 2])
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir)

    def test_compare_flags_a_regression(self):
        tmp = tempfile.mkdtemp(prefix="selftest-")
        try:
            paths = []
            for label, scale in (("base", 1.0), ("new", 1.5)):
                path = os.path.join(tmp, f"{label}.jsonl")
                with open(path, "w") as fh:
                    for i in range(4):
                        value = scale * (1.0 + 0.001 * i)
                        fh.write(json.dumps({
                            "workload": "map-sweep", "trace": False,
                            "metrics": {"wall_s": {"value": value, "unit": "s"}}}) + "\n")
                paths.append(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main(paths)
            self.assertEqual(code, 1)
            self.assertIn("WORSE", out.getvalue())
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
