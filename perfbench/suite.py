"""The four benchmark workloads: set-up, timed rounds, traced rounds and output checks.

Each workload object is driven by run.py in this order: `setup` (timed
several times), then either `measure(seconds)` or `measure_traced()`,
then `check()`.  Every timed region is a call, or a loop of calls, into
satree's public functions; the benchmark's own bookkeeping and checks sit
outside them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from speedometer import Normalized, Speedometer
from tracer import Tracer, load, self_times

clock = time.perf_counter

POLICIES = ("fixed", "move-half", "random-push", "max-push")
ADJUSTING = ("move-half", "random-push", "max-push")
SIMULATED = ("fixed", "move-half", "max-push")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rel_close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def zipf_items(n, m, rng) -> list[int]:
    """m requests, item r - 1 drawn with weight 1/r (zipf, alpha = 1)."""
    cum = np.cumsum(1.0 / np.arange(1, n + 1))
    cum /= cum[-1]
    return np.minimum(np.searchsorted(cum, rng.random(m), side="right"), n - 1).tolist()


class Layers:
    """Per-layer metrics from one traced run: self time and calls by span name and tag."""

    def __init__(self, names, spans, tags=("",)):
        self.table = self_times(names, spans)
        self.tags = tags

    def _sum(self, match, field, tag):
        return sum(
            v[field] for (name, t), v in self.table.items()
            if match(name) and (tag is None or self.tags[t] == tag)
        )

    def layer_self(self, layer, tag=None) -> float:
        return self._sum(lambda name: name.startswith(layer + "."), 0, tag)

    def fn_self(self, name, tag=None) -> float:
        return self._sum(lambda n: n == name, 0, tag)

    def calls(self, name, tag=None) -> int:
        return int(self._sum(lambda n: n == name, 1, tag))

    def breakdown(self) -> dict:
        out = {}
        for (name, t), (s, c) in sorted(self.table.items()):
            out[f"{name}{'.' + self.tags[t] if self.tags[t] else ''}"] = {"self_s": s, "calls": c}
        return out


def layer_metrics(layers: Layers, spec, tag=None, suffix="") -> dict:
    """Metrics named in spec: (metric, kind, span or layer), reported where the layer ran."""
    out = {}
    for metric, kind, target in spec:
        if kind == "layer":
            value = layers.layer_self(target, tag)
            ran = any(name.startswith(target + ".") and (tag is None or layers.tags[t] == tag)
                      for name, t in layers.table)
        elif kind == "self":
            value, ran = layers.fn_self(target, tag), layers.calls(target, tag) > 0
        else:
            value = layers.calls(target, tag)
            ran = value > 0
        if ran:
            out[metric + suffix] = (value, "count" if kind == "calls" else "s")
    return out


TREE_LAYER_SPEC = [
    ("policies.self_s", "layer", "policies"),
    ("policies.serve.calls", "calls", "policies.serve"),
    ("policies.sample_push_path.self_s", "self", "policies.sample_push_path"),
    ("policies.sample_push_path.calls", "calls", "policies.sample_push_path"),
    ("workset.self_s", "layer", "workset"),
    ("workset.rank.self_s", "self", "workset.rank"),
    ("workset.rank.calls", "calls", "workset.rank"),
    ("workset.rank_order.self_s", "self", "workset.rank_order"),
    ("workset.rank_order.calls", "calls", "workset.rank_order"),
    ("workset.max_rank_item_at_depth.self_s", "self", "workset.max_rank_item_at_depth"),
    ("tree.self_s", "layer", "tree"),
    ("tree.tree_distance.self_s", "self", "tree.tree_distance"),
    ("tree.tree_distance.calls", "calls", "tree.tree_distance"),
    ("tree.interchange.self_s", "self", "tree.interchange"),
    ("tree.relocate_chain.self_s", "self", "tree.relocate_chain"),
]

CLI_LAYER_SPEC = TREE_LAYER_SPEC + [
    ("workloads.read_trace.self_s", "self", "workloads.read_trace"),
    ("bench.run.self_s", "self", "bench.run"),
    ("bench.emit.self_s", "self", "bench.emit"),
    ("cli.self_s", "layer", "cli"),
]

ANALYSIS_LAYER_SPEC = TREE_LAYER_SPEC + [
    ("bench.random_push_rank_stats.self_s", "self", "bench.random_push_rank_stats"),
    ("markov.self_s", "layer", "markov"),
    ("markov.expected_state_curve.calls", "calls", "markov.expected_state_curve"),
    ("oracle.self_s", "layer", "oracle"),
    ("oracle.opt_cost.calls", "calls", "oracle.opt_cost"),
]


class Workload:
    """State shared by the workloads: operations attempted and failed, check messages, the speedometer."""

    def __init__(self, root: Path, seed: int, n: int = 255):
        self.root = root
        self.seed = seed
        self.speedometer = Speedometer(n)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict = {}

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)

    def fail(self, what, exc):
        """Count one operation that raised; the run goes on without it."""
        self.failed += 1
        errors = self.details.setdefault("errors", [])
        if len(errors) < 20:
            errors.append(f"{what}: {exc!r}")

    def attempt(self, what, fn, *args):
        """fn(*args), or None when it raises (counted as failed)."""
        try:
            return fn(*args)
        except Exception as exc:
            self.fail(what, exc)
            return None

    def spans_path(self, name) -> Path:
        return self.root / "perfbench" / "out" / f"spans-{name}.npz"


class TreeWorkload(Workload):
    """Four policies serve one zipf sequence, interleaved in rounds.

    A round serves the next `chunk[p]` requests through each policy p in
    turn; `rounds` rounds make an episode, in which every policy serves its
    prefix of the sequence once.  Each episode starts from fresh policies,
    so memory and simulated costs do not depend on how long the run is.
    """

    def __init__(self, root, seed, name, n, chunk, rounds):
        super().__init__(root, seed, n)
        self.name, self.n, self.chunk, self.rounds = name, n, chunk, rounds
        self.episode = {p: c * rounds for p, c in chunk.items()}
        self.states = []  # program outputs at each episode end and at the end of the run

    def setup(self, st):
        self.st = st
        rng = np.random.default_rng([self.seed, 1])
        self.items = zipf_items(self.n, max(self.episode.values()), rng)
        self.policies = self._fresh()

    def _fresh(self):
        return {p: self.st.Policy(p, self.n, seed=self.seed) for p in POLICIES}

    def _record(self, policies, j):
        state = {}
        for p, pol in policies.items():
            led = pol.ledger
            guest, host = pol.tree.guest, pol.tree.host
            ar = np.arange(self.n)
            state[p] = {
                "m": j * self.chunk[p],
                "access": int(led.access_total),
                "adjust": int(led.adjust_total),
                "ws": float(pol.ws.total),
                "inverse": bool((guest[host] == ar).all() and (host[guest] == ar).all()),
                "ledger_entries": len(led.per_request),
            }
        self.states.append(state)

    def _serve(self, deadline=None, max_rounds=None, tracer=None) -> Normalized:
        """Serve rounds until the deadline or round count; returns the chunk times keyed (policy, round)."""
        times = Normalized(self.speedometer)
        policies, self.policies = self.policies, None
        j = done = 0
        start = clock()
        while True:
            if policies is None:
                policies = self._fresh()
            for idx, p in enumerate(POLICIES):
                c = self.chunk[p]
                part = self.items[j * c:(j + 1) * c]
                serve = policies[p].serve
                if tracer is not None:
                    tracer.tag = idx + 1
                t0 = clock()
                for v in part:
                    try:
                        serve(v)
                    except Exception as exc:
                        self.fail(f"{p} serve({v})", exc)
                times.add((p, j), clock() - t0)
            j += 1
            done += 1
            self.attempted += sum(self.chunk.values())
            finished = (max_rounds is not None and done >= max_rounds) or (
                deadline is not None and clock() - start >= deadline
            )
            if j == self.rounds or finished:
                self._record(policies, j)
                if j == self.rounds:
                    policies, j = None, 0
            if finished:
                return times

    def measure(self, seconds):
        times = self._serve(deadline=seconds)
        self.details["chunk_samples"] = {f"{p} {j}": v for (p, j), v in times.samples.items()}
        first = self.states[0]
        self.expect(first["fixed"]["m"] == self.episode["fixed"], "no complete episode in the run")
        episode = {p: times.seconds(lambda key: key[0] == p) for p in POLICIES}
        metrics = {
            "wall_s": (sum(episode.values()), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for p in POLICIES:
            metrics[f"requests_per_s.{p}"] = (self.episode[p] / episode[p], "1/s")
        for p in ADJUSTING:
            s = first[p]
            metrics[f"cost_per_ws.{p}"] = ((s["access"] + s["adjust"]) / s["ws"], "ratio")
        metrics["requests_per_s"] = (geomean(metrics[f"requests_per_s.{p}"][0] for p in POLICIES), "1/s")
        metrics["cost_per_ws"] = (geomean(metrics[f"cost_per_ws.{p}"][0] for p in ADJUSTING), "ratio")
        return metrics

    def measure_traced(self):
        plain = self._serve(max_rounds=self.rounds)
        self.policies = self._fresh()
        tracer = Tracer()
        with tracer:
            traced = self._serve(max_rounds=self.rounds, tracer=tracer)
        tracer.save(self.spans_path(self.name))
        layers = Layers(tracer.names, tracer.arrays(), tags=("",) + POLICIES)
        self.details["layers"] = layers.breakdown()
        last = self.states[-1]
        metrics = layer_metrics(layers, TREE_LAYER_SPEC)
        metrics["trace.overhead_s"] = (traced.raw() - plain.raw(), "s")
        for key, unit in (("access", "swaps"), ("adjust", "swaps"), ("ledger_entries", "count")):
            metric = "tree.ledger_entries" if key == "ledger_entries" else f"tree.{key}_cost"
            metrics[metric] = (sum(last[p][key] for p in POLICIES), unit)
        for p in POLICIES:
            metrics.update(layer_metrics(layers, TREE_LAYER_SPEC, tag=p, suffix="." + p))
            of = lambda key, p=p: key[0] == p
            metrics[f"trace.overhead_s.{p}"] = (traced.raw(of) - plain.raw(of), "s")
            metrics[f"tree.access_cost.{p}"] = (last[p]["access"], "swaps")
            if p != "fixed":
                metrics[f"tree.adjust_cost.{p}"] = (last[p]["adjust"], "swaps")
            metrics[f"tree.ledger_entries.{p}"] = (last[p]["ledger_entries"], "count")
        return metrics

    def check(self):
        longest = max(s[p]["m"] for s in self.states for p in POLICIES)
        ws = reference.ws_prefix(reference.ranks_of(self.n, self.items[:longest]))
        sims = {}
        for p in SIMULATED:
            m = max(s[p]["m"] for s in self.states)
            sims[p] = reference.simulate(p, self.n, self.items[:m])
        for k, state in enumerate(self.states):
            for p, s in state.items():
                m, where = s["m"], f"{self.name} state {k} {p} after {s['m']} requests"
                self.expect(rel_close(s["ws"], ws[m], 1e-9), f"{where}: ws {s['ws']} != {ws[m]}")
                self.expect(s["access"] + s["adjust"] >= ws[m] / 4 - 1e-9, f"{where}: cost below WS/4")
                if p in sims:
                    acc, adj = sims[p]
                    self.expect((s["access"], s["adjust"]) == (acc[m], adj[m]),
                                f"{where}: totals {(s['access'], s['adjust'])} != {(acc[m], adj[m])}")
                else:
                    self.expect(s["adjust"] <= 4 * s["access"], f"{where}: adjust above 4x access")
                    self.expect(s["inverse"], f"{where}: guest and host are not inverse permutations")


class CliRunWorkload(Workload):
    """`satree run --algo move-half --n 255 --workload trace` on a trace of uniform requests."""

    N = 255
    M = 450_000
    READ_EVERY = 0.05

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.out = root / "perfbench" / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.trace = self.out / "cli-run.trace"
        rng = np.random.default_rng([seed, 2])
        self.items = rng.integers(0, self.N, size=self.M).tolist()
        with open(self.trace, "w") as f:
            f.write(f"# {self.M} uniform requests over n={self.N}, seed {seed}\n")
            f.writelines(f"{v}\n" for v in self.items)
        self.measures = self.out / "cli-run.measures.json"
        self.args = ["run", "--algo", "move-half", "--n", str(self.N), "--workload", "trace",
                     "--trace", str(self.trace.relative_to(root)), "--format", "json"]
        self.reports = []

    def setup(self, st):
        st.read_trace(self.trace, self.N)
        st.Policy("move-half", self.N)

    def _child(self, spans="-", read=False):
        """Run one cli_child.py to its end; returns (wall seconds, measures, report or None, readings).

        The measures are what the child wrote about itself: its own peak
        RSS in MB and, when traced into `spans`, its counts.

        With read=True the parent and the child share one CPU, and the
        parent wakes every READ_EVERY seconds to take one speedometer
        reading, so the readings sample the host speed the child sees.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        cpus = os.sched_getaffinity(0)
        readings = []
        self.details.setdefault("parent_peak_rss_mb_at_first_spawn", peak_rss_mb())
        self.measures.unlink(missing_ok=True)
        try:
            if read:
                os.sched_setaffinity(0, {min(cpus)})  # the child inherits it
            with open(self.out / "cli-run.stderr", "wb") as err:
                t0 = clock()
                argv = ["perfbench/cli_child.py", str(self.measures.relative_to(self.root)), str(spans)]
                proc = subprocess.Popen([sys.executable, *argv, *self.args], cwd=self.root,
                                        env=env, stdout=subprocess.PIPE, stderr=err,
                                        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (150, 150)))
                while True:
                    pid, status, _ = os.wait4(proc.pid, os.WNOHANG if read else 0)
                    if pid:
                        break
                    readings.append(self.speedometer())
                    time.sleep(self.READ_EVERY)
                wall = clock() - t0
                out = proc.stdout.read()
                proc.stdout.close()
        finally:
            os.sched_setaffinity(0, cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        report, measures = None, {}
        if proc.returncode != 0:
            self.failed += 1
        else:
            report = json.loads(out)
            self.reports.append(report)
            measures = json.loads(self.measures.read_text())
        return wall, measures, report, readings

    def _untraced(self):
        """One CLI child; returns (normalised seconds, raw seconds, peak RSS in MB or None, report)."""
        wall, measures, report, readings = self._child(read=True)
        own = wall - sum(readings)
        # the child's work is its time integral of host speed, and speed is 1 / reading, so the
        # host's mean speed over the child's life is 1 / harmonic mean of the evenly spaced readings;
        # a reading the child preempted reads long and, rightly, adds almost nothing to the mean
        normalised = own * self.speedometer.ref / statistics.harmonic_mean(readings)
        return normalised, own, measures.get("peak_rss_mb"), report

    def measure(self, seconds):
        runs = []
        start = clock()
        while not runs or clock() - start + runs[-1][1] <= seconds:
            runs.append(self._untraced())
        self.details["children"] = [r[:3] for r in runs]
        ok = [r for r in runs if r[3] is not None]
        wall = statistics.median(r[0] for r in runs)
        metrics = {"wall_s": (wall, "s"), "requests_per_s": (self.M / wall, "1/s")}
        if ok:
            report = ok[0][3]
            metrics["peak_rss_mb"] = (statistics.median(r[2] for r in ok), "MB")
            metrics["cost_per_ws.move-half"] = (report["cost_total"] / report["ws_bound"], "ratio")
            metrics["cost_per_ws"] = metrics["cost_per_ws.move-half"]
        return metrics

    def measure_traced(self):
        plain_wall = self._untraced()[1]
        spans = self.spans_path("cli-run")
        wall, counted, report, _ = self._child(spans=spans.relative_to(self.root))
        names, arrays = load(spans)
        layers = Layers(names, arrays)
        self.details["layers"] = layers.breakdown()
        metrics = layer_metrics(layers, CLI_LAYER_SPEC)
        if counted:
            metrics["workloads.requests_read"] = (counted["requests_read"], "count")
            metrics["tree.ledger_entries"] = (counted["ledger_entries"], "count")
        if report is not None:
            metrics["tree.access_cost"] = (report["access_total"], "swaps")
            metrics["tree.adjust_cost"] = (report["adjust_total"], "swaps")
        metrics["trace.overhead_s"] = (wall - plain_wall, "s")
        return metrics

    def check(self):
        self.expect(self.reports, "no child run succeeded")
        acc, adj = reference.simulate("move-half", self.N, self.items)
        ws = reference.ws_prefix(reference.ranks_of(self.N, self.items))[-1]
        cost = acc[-1] + adj[-1]
        for k, rep in enumerate(self.reports):
            where = f"cli-run report {k}"
            self.expect(rep["m"] == self.M, f"{where}: m {rep['m']} != {self.M}")
            self.expect((rep["access_total"], rep["adjust_total"]) == (acc[-1], adj[-1]),
                        f"{where}: totals {(rep['access_total'], rep['adjust_total'])} != {(acc[-1], adj[-1])}")
            self.expect(rel_close(rep["ws_bound"], ws, 1e-9), f"{where}: ws_bound {rep['ws_bound']} != {ws}")
            self.expect(rel_close(rep["ratio_cost_over_ws"], cost / ws, 1e-9),
                        f"{where}: ratio {rep['ratio_cost_over_ws']} != {cost / ws}")


class AnalysisWorkload(Workload):
    """The computations behind the slow acceptance gates, at the gates' settings.

    One round is random_push_rank_stats(255, 8000, seeds 0..19, warmup
    2500), the chain curve and concavity for i in 2..64 up to w = 1024,
    and opt_cost with move-half on all 729 sequences at n = 3 and on a
    seeded sample at n = 7.  The round is cut into 20 steps, each taking a
    share of every computation, so that each computation's time is spread
    over the whole round.
    """

    STEPS = 20
    N7 = 100
    CHAIN = list(range(2, 65))
    RATIONAL = ((2, 5), (3, 7), (4, 16), (8, 64), (16, 128))

    def setup(self, st):
        self.st = st
        self.seq3 = [list(s) for s in itertools.product(range(3), repeat=6)]
        rng = np.random.default_rng([self.seed, 3])
        self.seq7 = rng.integers(0, 7, size=(self.N7, 6)).tolist()
        # the oracle builds its layout graph on first use; users pay that once per process
        st.opt_cost([], (0, 1, 2))
        st.opt_cost([], tuple(range(7)))
        self.first = None  # the first round's outputs; later rounds are compared with it and dropped
        self.rounds = 0
        self.differing = []  # later rounds whose outputs differ from the first's
        self.last_totals = None

    def _oracle_one(self, seq, n):
        opt = self.st.opt_cost(seq, tuple(range(n)))
        p = self.st.Policy("move-half", n)
        for v in seq:
            p.serve(v)
        led = p.ledger
        return opt, int(led.access_total), int(led.adjust_total), float(p.ws.total), len(led.per_request)

    def _oracle(self, seqs, n):
        """(opt, move-half access, adjust, ws, ledger entries) per sequence; None where it raised."""
        return [self.attempt(f"oracle n={n} {seq}", self._oracle_one, seq, n) for seq in seqs]

    def _chain(self, i):
        st = self.st
        return st.expected_state_curve(i, 1024), st.concavity_check(i, 1024)

    def _round(self, times: Normalized) -> float:
        """One round of the gate computations; returns its raw seconds."""
        st = self.st
        total = 0.0
        stats, stats_steps = None, 0
        curves, opt3, opt7 = {}, [], []
        chain_parts = np.array_split(np.array(self.CHAIN), self.STEPS)
        s3 = np.array_split(np.arange(len(self.seq3)), self.STEPS)
        s7 = np.array_split(np.arange(self.N7), self.STEPS)
        for step in range(self.STEPS):
            t0 = clock()
            part = self.attempt(f"random_push_rank_stats seed {step}", st.random_push_rank_stats,
                                255, 8000, [step], 2500)
            rank_s = clock() - t0
            times.add(("rank_stats", step), rank_s)
            if part is not None:
                stats_steps += 1
                stats = part if stats is None else {k: stats[k] + part[k] for k in stats}
            t0 = clock()
            for i in chain_parts[step].tolist():
                curve = self.attempt(f"chain i={i}", self._chain, i)
                if curve is not None:
                    curves[i] = curve
            chain_s = clock() - t0
            times.add(("chain", step), chain_s)
            t0 = clock()
            opt3 += self._oracle([self.seq3[k] for k in s3[step].tolist()], 3)
            opt7 += self._oracle([self.seq7[k] for k in s7[step].tolist()], 7)
            oracle_s = clock() - t0
            times.add(("oracle", step), oracle_s)
            total += rank_s + chain_s + oracle_s
        self.attempted += self.STEPS + len(self.CHAIN) + len(self.seq3) + self.N7
        out = (stats, stats_steps, curves, opt3, opt7)
        # keeping every round's outputs would make peak RSS grow with the number of rounds
        if self.first is None:
            self.first = out
        elif not self._same(self.first, out):
            self.differing.append(self.rounds)
        self.rounds += 1
        done = [res for res in opt3 + opt7 if res is not None]
        # move-half's (access, adjust, ws, ledger entries) summed over the round's oracle sequences
        self.last_totals = tuple(sum(res[i] for res in done) for i in range(1, 5))
        return total

    @staticmethod
    def _same(a, b) -> bool:
        (stats, steps, curves, opt3, opt7), (stats_b, steps_b, curves_b, opt3_b, opt7_b) = a, b
        return (steps == steps_b and curves.keys() == curves_b.keys()
                and all(np.array_equal(stats[x], stats_b[x]) for x in stats or ())
                and all(np.array_equal(curves[i][0], curves_b[i][0]) for i in curves)
                and opt3 == opt3_b and opt7 == opt7_b)

    def measure(self, seconds):
        times = Normalized(self.speedometer, readings=5)
        rounds = []
        start = clock()
        while not rounds or clock() - start + rounds[-1] <= seconds:
            rounds.append(self._round(times))
        self.details["rounds_raw_s"] = rounds
        self.details["step_samples"] = {f"{k} {i}": v for (k, i), v in times.samples.items()}
        samples_per_s = self.STEPS * 8000 / times.seconds(lambda key: key[0] == "rank_stats")
        access, adjust, ws, _ = self.last_totals
        return {
            "wall_s": (times.seconds(), "s"),
            "samples_per_s": (samples_per_s, "1/s"),
            "requests_per_s": (samples_per_s, "1/s"),
            "cost_per_ws": ((access + adjust) / ws, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def measure_traced(self):
        plain = self._round(Normalized(self.speedometer))
        tracer = Tracer()
        with tracer:
            traced = self._round(Normalized(self.speedometer))
        tracer.save(self.spans_path("analysis"))
        layers = Layers(tracer.names, tracer.arrays())
        self.details["layers"] = layers.breakdown()
        metrics = layer_metrics(layers, ANALYSIS_LAYER_SPEC)
        metrics["trace.overhead_s"] = (traced - plain, "s")
        access, adjust, _, entries = self.last_totals
        metrics["tree.access_cost"] = (access, "swaps")
        metrics["tree.adjust_cost"] = (adjust, "swaps")
        metrics["tree.ledger_entries"] = (entries, "count")
        return metrics

    def _check_rank_stats(self, stats, steps):
        cnt, tot = stats["depth_cnt"], stats["depth_sum"]
        self.expect(int(cnt.sum()) == steps * 5500, f"depth samples {int(cnt.sum())} != {steps * 5500}")
        self.expect(bool((cnt[1:] > 0).all()), "a rank was never sampled")
        for r in range(1, 256):
            if cnt[r]:
                self.expect(tot[r] / cnt[r] <= math.log2(r) + 3.1, f"mean depth at rank {r} above log2(r)+3.1")
        wc, wt = stats["w_cnt"], stats["w_sum"]
        for i in range(1, 65):
            self.expect(wc[i] > 0 and wt[i] / wc[i] <= 2 * i - 0.5, f"mean W_{i} above 2i-0.5")

    def check(self):
        stats, stats_steps, curves, opt3, opt7 = self.first
        for k in self.differing:
            self.problems.append(f"analysis round {k} differs from round 0")
        if stats_steps:
            self._check_rank_stats(stats, stats_steps)
        for i, (curve, concave) in curves.items():
            w = np.arange(2, 1025)
            self.expect(bool((curve[2:] < np.ceil(np.log2(w)) + 1).all()), f"chain i={i} above ceil(log2 w)+1")
            self.expect(bool(concave) and bool((np.diff(curve[1:], 2) <= 1e-12).all()),
                        f"chain i={i} not concave")
        for i, w in self.RATIONAL:
            if i in curves:
                exact = float(reference.chain_expectation(i, w))
                self.expect(abs(curves[i][0][w] - exact) <= 1e-12, f"chain i={i} w={w} != exact {exact}")
        for seq, res in zip(self.seq3, opt3):
            if res is not None:
                self.expect(res[0] == reference.opt_cost_n3(seq), f"opt_cost {seq} = {res[0]} != DP")
        for n, seqs, results in ((3, self.seq3, opt3), (7, self.seq7, opt7)):
            for seq, res in zip(seqs, results):
                if res is None:
                    continue
                opt, mh_access, mh_adjust, mh_ws, _ = res
                mh = mh_access + mh_adjust
                ws = sum(math.log2(r) for r in reference.ranks_of(n, seq))
                acc, adj = reference.simulate("move-half", n, seq)
                self.expect((mh_access, mh_adjust) == (acc[-1], adj[-1]), f"move-half totals on {seq} != reference")
                self.expect(abs(mh_ws - ws) <= 1e-9 * max(ws, 1.0), f"move-half ws on {seq} {mh_ws} != {ws}")
                self.expect(opt <= mh, f"opt above move-half on {seq}")
                self.expect(ws <= 4 * opt + 1e-9, f"WS above 4 opt on {seq}")


def make(name, root, seed):
    if name == "small-tree":
        chunk = {"fixed": 2000, "move-half": 2000, "random-push": 2000, "max-push": 2000}
        return TreeWorkload(root, seed, name, 255, chunk, rounds=25)
    if name == "large-tree":
        chunk = {"fixed": 250, "move-half": 250, "random-push": 250, "max-push": 8}
        return TreeWorkload(root, seed, name, 131071, chunk, rounds=40)
    if name == "cli-run":
        return CliRunWorkload(root, seed)
    if name == "analysis":
        return AnalysisWorkload(root, seed)
    raise ValueError(f"unknown workload {name!r}")

