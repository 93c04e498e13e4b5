"""The three benchmark workloads.

Each workload generates its inputs in `setup`; `phases` then runs its timed
operations as closed loops: one operation at a time, each a call of the
CLI's `main` in this process, or one corpus call whose own `--workers` pool
is set to the core count. The operations are grouped into steps that cycle
until the time budget is spent, so the samples of every measurement are
spread over the whole run; every step's outputs are checked.

Every workload reports the same end-to-end measurements:
  serial    latency of one CLI call in the workload's one-at-a-time loop
  batch     items per second of the workload's corpus command
  check     items per second of the workload's checking command
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import selectors
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import checks
import inputs
from treatise import cli as treatise_cli
from treatise import fixtures, lexicon, mockserver, ontology, retrieval

NPROC = len(os.sched_getaffinity(0))
QUERY_STEPS = 3  # steps the queries are split over; every run makes all of them
EVAL_CALLS = 4  # eval calls per query step, each over a quarter of the pairs


class Run:
    """Operation runner and tally shared by the phases of one workload run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list] = {}  # raw end-to-end samples, for the result file

    def check(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def checks(self, problems: list[str]) -> None:
        self.check(not problems, "; ".join(problems[:5]))

    def cli(self, argv: list[str], **attrs) -> tuple[str, float]:
        """Run `treatise <argv>` in this process; (stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.operation("cli." + argv[0], **attrs)
                if self.tracer else nullcontext())
        with span, redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            rc = treatise_cli.main(argv)
            dt = time.perf_counter() - t0
        self.check(rc == 0, f"treatise {' '.join(argv[:4])}: exit {rc}: "
                            f"{err.getvalue().strip()[-300:]}")
        return out.getvalue(), dt


def interleave(budget: float, steps, at_least: int = 1) -> None:
    """Run the steps in turn, cycling, until `budget` seconds have passed and
    at least `at_least` steps have run."""
    end = time.perf_counter() + budget
    for n, step in enumerate(itertools.cycle(steps), 1):
        step()
        if n >= at_least and time.perf_counter() >= end:
            return


class Result:
    """Raw end-to-end samples of one run of the phases: the latency of each
    serial call, and (items, seconds) of each batch and check round."""

    def __init__(self):
        self.serial_ms: list[float] = []
        self.batch: list[tuple[int, float]] = []
        self.check: list[tuple[int, float]] = []


def _split(seq, n: int) -> list:
    """`seq` cut into n consecutive parts of near-equal length."""
    return [seq[k * len(seq) // n:(k + 1) * len(seq) // n] for k in range(n)]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _knowledge_files(root: str) -> tuple[str, str]:
    gpath, opath = os.path.join(root, "glossary.json"), os.path.join(root, "ontology.json")
    inputs.write_bytes(gpath, inputs.merged_glossary_bytes())
    inputs.write_bytes(opath, fixtures.read_bytes("ontology_fig6.json"))
    return gpath, opath


class PageCorpus:
    """Shared shape of the two page workloads. Each step takes one group of
    pages: per page, one CLI call (serial) and `validate` on the sidecar it
    wrote (check); then one corpus call over the group's manifest (batch)."""

    def __init__(self, run: Run):
        self.run = run
        self.groups: list[dict] = []  # {"items": [...], "corpus": argv}
        self.views: dict[str, dict] = {}

    def serial_argv(self, item) -> list[str]:
        raise NotImplementedError

    def sidecar_problems(self, obj: dict) -> list[str]:
        return []

    def check_sidecars(self, items) -> None:
        """Every sidecar must be valid and equal to the first record written
        for its page, by either the serial or the corpus command."""
        problems = []
        for it in items:
            found, obj = checks.sidecar_view(it["page"] + ".segments.json", it["bytes"])
            problems += found
            if obj is not None:
                problems += self.sidecar_problems(obj)
                if self.views.setdefault(it["key"], obj) != obj:
                    problems.append(f"{it['key']}: record differs from an earlier run")
        self.run.checks(problems)

    def _step(self, res: Result, group: dict) -> None:
        for it in group["items"]:
            _, dt = self.run.cli(self.serial_argv(it), phase="A", page=it["key"])
            res.serial_ms.append(dt * 1e3)
            out, dt = self.run.cli(["validate", "--in", it["page"] + ".segments.json",
                                    "--image", it["page"]], phase="C")
            self.run.check(out == "ok\n", f"validate printed {out.strip()!r}")
            res.check.append((1, dt))
        self.check_sidecars(group["items"])

        n = len(group["items"])
        out, dt = self.run.cli(group["corpus"], phase="B")
        self.run.check(out.strip() == f"processed={n} failed=0 skipped=0",
                       f"corpus run printed {out.strip()!r}")
        res.batch.append((n, dt))
        self.check_sidecars(group["items"])

    def phases(self, budget: float) -> Result:
        res = Result()
        interleave(budget, [functools.partial(self._step, res, g) for g in self.groups],
                   at_least=len(self.groups))
        self.run.digests["records"] = inputs.digest(self.views)
        return res

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class NativeCorpus(PageCorpus):
    """Local watershed segmentation: raster and catalog do the work."""

    name = "native-corpus"

    def setup(self, root: str) -> None:
        items = inputs.native_corpus(root, self.run.seed)
        self.groups = []
        for h in inputs.NATIVE_H:
            d = os.path.join(root, f"h{h}")
            config = os.path.join(d, "treatise.json")
            inputs.write_bytes(config, json.dumps({"h": h}).encode())
            group = [it for it in items if it["h"] == h]
            for it in group:
                it["key"] = f"h{h}/{os.path.basename(it['page'])}"
            self.groups.append({"items": group, "corpus": [
                "pipeline", "--method", "native", "--config", config,
                "--manifest", os.path.join(d, "manifest.json"),
                "--workers", str(NPROC), "--force"]})

    def serial_argv(self, it) -> list[str]:
        return ["segment", "--in", it["page"], "--h", str(it["h"])]


class MockServer:
    """`treatise mock-serve --port 0` in its own process."""

    def __init__(self, cwd: str):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treatise_cli.__file__)))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "treatise.cli", "mock-serve", "--port", "0"],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        # the server names one endpoint per line on stderr: "<stage>: <url>"
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        deadline = time.monotonic() + 60
        text = b""
        try:
            while text.count(b"\n") < 5:
                if not sel.select(timeout=max(deadline - time.monotonic(), 0)):
                    raise RuntimeError("mock server did not report its endpoints")
                chunk = os.read(self.proc.stderr.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"mock server exited during start-up: {text!r}")
                text += chunk
        except BaseException:
            self.stop()
            raise
        finally:
            sel.close()
        self.endpoints = dict(line.split(": ", 1) for line in text.decode().splitlines())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()


class LabeledCorpus(PageCorpus):
    """Method M4 against the mock backends: backends, the mock transport and
    pipeline orchestration do the work."""

    name = "labeled-corpus"

    def __init__(self, run: Run):
        super().__init__(run)
        self.server = None

    def setup(self, root: str) -> None:
        self.root = root
        items = inputs.labeled_corpus(os.path.join(root, "pages"), self.run.seed)
        for it in items:
            it["key"] = os.path.basename(it["page"])
        self.glossary, self.ontology = _knowledge_files(root)
        self.server = MockServer(root)
        self.config = os.path.join(root, "treatise.json")
        inputs.write_bytes(self.config,
                           json.dumps({"endpoints": self.server.endpoints}).encode())
        self.vocabulary = os.path.join(root, "vocabulary.json")
        self.build_vocabulary(self.vocabulary)
        self.terms = set(json.loads(_read(self.vocabulary))["entries"])
        self.groups = [{"items": items, "corpus": [
            "pipeline", "--manifest", os.path.join(root, "pages", "manifest.json"),
            *self._method_args(), "--workers", str(NPROC), "--force"]}]

    def build_vocabulary(self, out: str, **attrs) -> None:
        self.run.cli(["vocab", "--config", self.config, "--glossary", self.glossary,
                      "--out", out], **attrs)

    def _method_args(self) -> list[str]:
        return ["--method", "m4", "--config", self.config, "--vocabulary", self.vocabulary,
                "--glossary", self.glossary, "--ontology", self.ontology]

    def serial_argv(self, it) -> list[str]:
        return ["pipeline", "--in", it["page"], *self._method_args()]

    def sidecar_problems(self, obj: dict) -> list[str]:
        out = []
        prov = obj["provenance"]
        if prov["method"] != "M4" or len(prov["prompt_hashes"]) != 3:
            out.append(f"{obj['source_path']}: provenance {prov['method']} with "
                       f"{len(prov['prompt_hashes'])} request hashes, want M4 with 3")
        labels = [a for items in obj["assignments"].values() for a in items]
        if not labels or any(a["text"] not in self.terms or a.get("concept_id") is None
                             for a in labels):
            out.append(f"{obj['source_path']}: labels outside the enriched vocabulary")
        return out

    def layer_extras(self) -> dict[str, float]:
        return {"mockserver.stop_ms": stop_time_ms()}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class CorpusQuery:
    """Index writes, search reads and eval over labeled sidecars: retrieval,
    lexicon, ontology and evaluation do the work. Each step rebuilds the
    index and re-adds a tenth of the records (batch), then alternates runs
    of a third of the queries (serial) with eval calls that together score
    every pred/truth pair (check)."""

    name = "corpus-query"

    def __init__(self, run: Run):
        self.run = run

    def setup(self, root: str) -> None:
        self.root = root
        self.data = inputs.query_corpus(root, self.run.seed, inputs.Vocabulary())
        self.glossary, self.ontology = _knowledge_files(root)
        self.index = os.path.join(root, "index.json")
        self.report = os.path.join(root, "report.json")

    def _expected_hits(self, ref: checks.ReferenceIndex) -> list[list]:
        """Reference answer of every query, in query order."""
        glossary = lexicon.load_glossary(_read(self.glossary))
        onto = ontology.load_ontology(_read(self.ontology))
        out = []
        for args in self.data["queries"]:
            expand = "--expand" in args
            q = retrieval.expand_query(args[1].split(), glossary if expand else None,
                                       onto if expand else None,
                                       hops=1 if "--hops" in args else 0)
            kind = args[args.index("--kind") + 1] if "--kind" in args else "all"
            out.append(ref.search(q.tokens(), 10, kind))
        return out

    def phases(self, budget: float) -> Result:
        res = Result()
        sidecars = self.data["sidecars"]
        replace = sidecars[::10]
        pairs = self.data["pairs"]
        ref = checks.ReferenceIndex(self.data["records"])
        expected = self._expected_hits(ref)
        answers: list = [None] * len(expected)
        first: dict[str, bytes] = {}
        reports: dict[int, bytes] = {}

        def step(chunk):
            _, t_full = self.run.cli(["index", "--index", self.index, "--force", *sidecars],
                                     phase="A", op="full")
            _, t_part = self.run.cli(["index", "--index", self.index, *replace],
                                     phase="A", op="replace")
            res.batch.append((len(sidecars) + len(replace), t_full + t_part))
            snapshot = _read(self.index)
            if first.setdefault("index", snapshot) == snapshot:
                self.run.checks(ref.snapshot_problems(json.loads(snapshot)))
            else:
                self.run.check(False, "index snapshot differs from an earlier build")

            for part, (queries, evals) in enumerate(zip(_split(chunk, EVAL_CALLS),
                                                        _split(pairs, EVAL_CALLS))):
                problems = []
                for i in queries:
                    args = self.data["queries"][i]
                    argv = ["search", "--index", self.index, *args]
                    if "--expand" in args:
                        argv += ["--glossary", self.glossary, "--ontology", self.ontology]
                    out, dt = self.run.cli(argv, phase="B")
                    res.serial_ms.append(dt * 1e3)
                    answers[i] = checks.parse_hits(out)
                    if not checks.same_ranking(answers[i], expected[i]):
                        problems.append(f"search {args}: {answers[i][:3]} != {expected[i][:3]}")
                self.run.checks(problems)

                argv = ["eval", "--glossary", self.glossary, "--ontology", self.ontology,
                        "--out", self.report]
                for p in evals:
                    argv += ["--pred", p["pred"], "--truth", p["truth"]]
                _, dt = self.run.cli(argv, phase="C")
                res.check.append((len(evals), dt))
                report = _read(self.report)
                if reports.setdefault(part, report) == report:
                    self.run.checks(checks.eval_problems(json.loads(report), evals))
                else:
                    self.run.check(False, "eval report differs from an earlier run")

        steps = [functools.partial(step, c) for c in _split(range(len(expected)), QUERY_STEPS)]
        interleave(budget, steps, at_least=QUERY_STEPS)
        self.run.digests["index"] = inputs.digest(first["index"].decode("utf-8"))
        self.run.digests["search"] = inputs.digest(
            [[args, checks.rounded(hits)] for args, hits in zip(self.data["queries"], answers)])
        self.run.digests["eval"] = inputs.digest(
            [checks.rounded(json.loads(reports[k])) for k in sorted(reports)])
        return res

    def layer_extras(self) -> dict[str, float]:
        data = _read(self.index)
        snapshot = json.loads(data)
        return {"retrieval.docs": len(snapshot["docs"]),
                "retrieval.postings": sum(len(p) for p in snapshot["postings"].values()),
                "retrieval.snapshot_bytes": len(data)}

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (NativeCorpus, LabeledCorpus, CorpusQuery)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def stop_time_ms() -> float:
    """Start and stop one in-process mock server; milliseconds to stop."""
    server = mockserver.MockBackendServer(port=0).start()
    t0 = time.perf_counter()
    server.stop()
    return (time.perf_counter() - t0) * 1e3
