"""Span tracing of rankagg from outside the library.

``Tracer.install`` rebinds module attributes of rankagg (each function as
bound in the module that calls it) to timing wrappers and ``uninstall``
puts the originals back; nothing in the library is edited. Every wrapped
call records one span: id, name, start, end, parent span and command id.
Spans are kept in per-thread arrays, so threads never contend, and are
merged when the run ends. A layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# (module the function is bound in, attribute, module the function lives in)
BINDINGS = (
    ("cli", "parse_profile_document", "cli"),
    ("cli", "parse_rankings_document", "cli"),
    ("cli", "classification_json", "cli"),
    ("cli", "aggregation_json", "cli"),
    ("cli", "report_json", "cli"),
    ("cli", "census_json", "cli"),
    ("cli", "dumps", "cli"),
    ("cli", "classify", "conditions"),
    ("cli", "aggregate_unanimity", "aggregators"),
    ("cli", "aggregate_delegation", "aggregators"),
    ("cli", "verify_rule", "properties"),
    ("cli", "census_brute", "census"),
    ("cli", "census_symmetric", "census"),
    ("conditions", "build_union_graph", "profiles"),
    ("conditions", "check_cycle_cover", "conditions"),
    ("conditions", "maximal_cyclic_sets", "conditions"),
    ("conditions", "check_spanning_cycle_free", "conditions"),
    ("aggregators", "build_union_graph", "profiles"),
    ("aggregators", "validate_rankings", "profiles"),
    ("aggregators", "check_cycle_cover", "conditions"),
    ("aggregators", "maximal_cyclic_sets", "conditions"),
    ("aggregators", "maximal_cycle_family", "aggregators"),
    ("aggregators", "pair_delegates", "aggregators"),
    ("aggregators", "linear_extension", "relations"),
    ("aggregators", "is_acyclic", "relations"),
    ("properties", "aggregate_unanimity", "aggregators"),
    ("properties", "aggregate_delegation", "aggregators"),
    ("properties", "maximal_cycle_family", "aggregators"),
    ("properties", "pair_delegates", "aggregators"),
    ("properties", "strict_part", "relations"),
    ("census", "classify", "conditions"),
)
RULE_SPAN = "properties.rule"  # the closure make_rule returns
ENUMERATE_SPAN = "properties.enumerate_rankings"  # one span per profile yielded
ROOT_SPAN = "cli.main"
LOOKUP_COUNTER = "census.lookups"


class _ThreadBuffer:
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cmd = array("i")
        self.counts: dict[tuple[str, int], int] = defaultdict(int)


class Tracer:
    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._register = threading.Lock()
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        self.cmd = -1
        self.root = -1

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._register:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, buf, sid, nid, start, end, parent) -> None:
        buf.sid.append(sid)
        buf.name.append(nid)
        buf.start.append(start)
        buf.end.append(end)
        buf.parent.append(parent)
        buf.cmd.append(self.cmd)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            sid = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self._record(buf, sid, nid, start, end, parent)

        return traced

    def wrap_iterator(self, name: str, fn):
        """Span each ``next`` of the iterator ``fn`` returns."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            buf = self._buffer()
            while True:
                sid = next(self._ids)
                parent = buf.stack[-1] if buf.stack else self.root
                start = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._record(buf, sid, nid, start, perf_counter_ns(), parent)
                yield item

        return traced

    def count(self, name: str) -> None:
        self._buffer().counts[(name, self.cmd)] += 1

    @contextmanager
    def command(self, cmd: int):
        """Root span of one CLI command; spans started in threads that have
        no open span of their own are attributed to it."""
        buf = self._buffer()
        self.cmd = cmd
        self.root = sid = next(self._ids)
        buf.stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            buf.stack.pop()
            self._record(buf, sid, self._name_id(ROOT_SPAN), start, end, -1)
            self.root = -1

    # -- patching ----------------------------------------------------------

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        m = self.modules
        for site, attr, home in BINDINGS:
            module = m[site]
            self._set(module, attr, self.wrap(f"{home}.{attr}@{site}", getattr(module, attr)))
        self._set(m["properties"], "enumerate_rankings",
                  self.wrap_iterator(ENUMERATE_SPAN, m["properties"].enumerate_rankings))
        make_rule = m["cli"].make_rule

        def traced_make_rule(*args, **kwargs):
            return self.wrap(RULE_SPAN, make_rule(*args, **kwargs))

        self._set(m["cli"], "make_rule", self.wrap("properties.make_rule@cli", traced_make_rule))
        cache_class = m["census"]._VerdictCache
        tracer = self

        class CountingVerdictCache(cache_class):
            def verdict(self, masks):
                tracer.count(LOOKUP_COUNTER)
                return cache_class.verdict(self, masks)

        self._set(m["census"], "_VerdictCache", CountingVerdictCache)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> "Spans":
        cols = {key: array(code) for key, code in _COLUMNS}
        counts: dict[tuple[str, int], int] = defaultdict(int)
        for thread, buf in enumerate(self._buffers):
            for key, _ in _COLUMNS[:-1]:
                cols[key].extend(getattr(buf, key))
            cols["thread"].extend([thread] * len(buf.sid))
            for key, value in buf.counts.items():
                counts[key] += value
        return Spans(self.names, cols, dict(counts))


_COLUMNS = (("sid", "q"), ("name", "i"), ("start", "q"), ("end", "q"),
            ("parent", "q"), ("cmd", "i"), ("thread", "i"))


class Spans:
    """Merged spans with per-span self time, kept in flat arrays."""

    def __init__(self, names: list[str], cols: dict[str, array], counts: dict) -> None:
        self.names = names
        self.cols = cols
        self.counts = counts
        self.self_ns = self._self_times()
        # (name id, command) -> [calls, total ns, self ns]
        self.by_key: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0])
        for nid, cmd, start, end, own in zip(
            cols["name"], cols["cmd"], cols["start"], cols["end"], self.self_ns
        ):
            entry = self.by_key[(nid, cmd)]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own

    def _self_times(self) -> array:
        """Duration minus the union of the child spans' intervals.

        Children recorded by the parent's own thread nest inside it and never
        overlap each other, so their durations add up. Only parents with
        children from another thread need an explicit interval union.
        """
        sid, start, end, parent, thread = (
            self.cols[k] for k in ("sid", "start", "end", "parent", "thread")
        )
        row = array("q", bytes(8 * (max(sid, default=-1) + 1)))
        for i, s in enumerate(sid):
            row[s] = i
        mixed: dict[int, list[tuple[int, int]]] = {}
        for i, p in enumerate(parent):
            if p >= 0 and thread[row[p]] != thread[i]:
                mixed[row[p]] = []
        own = array("q", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(parent):
            if p < 0:
                continue
            r = row[p]
            if r in mixed:
                mixed[r].append((start[i], end[i]))
            else:
                own[r] -= end[i] - start[i]
        for r, intervals in mixed.items():
            reach, hi = start[r], end[r]
            for s, e in sorted(intervals):
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    own[r] -= e - s
                    reach = e
        return own

    def totals(self, functions: tuple[str, ...], cmds: set[int]) -> tuple[int, int, int]:
        """Calls, total ns and self ns of spans named ``function@site`` for
        any site, restricted to the given commands."""
        wanted = {i for i, n in enumerate(self.names) if n.split("@")[0] in functions}
        calls = total = own = 0
        for (nid, cmd), (c, tot, sf) in self.by_key.items():
            if nid in wanted and cmd in cmds:
                calls += c
                total += tot
                own += sf
        return calls, total, own

    def counter(self, name: str, cmds: set[int]) -> int:
        return sum(v for (n, c), v in self.counts.items() if n == name and c in cmds)

    def dump(self, directory: Path, commands: list[dict]) -> None:
        """``spans.tsv.gz``: one span a line; ``spans-meta.json``: span
        names, commands and counters."""
        keys = [k for k, _ in _COLUMNS]
        with gzip.open(directory / "spans.tsv.gz", "wt", encoding="utf-8") as handle:
            handle.write("\t".join(keys + ["self"]) + "\n")
            columns = [self.cols[k] for k in keys] + [self.self_ns]
            for values in zip(*columns):
                handle.write("\t".join(map(str, values)) + "\n")
        meta = {
            "names": self.names,
            "commands": commands,
            "counters": [[n, c, v] for (n, c), v in sorted(self.counts.items())],
        }
        (directory / "spans-meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, commands: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced commands that completed and passed.

    ``commands`` entries carry ``cmd``, ``group``, ``units`` and ``ok``.
    """
    ok = [c for c in commands if c["ok"]]
    every = {c["cmd"] for c in ok}
    n = len(every)

    def of(*groups: str) -> set[int]:
        return {c["cmd"] for c in ok if c["group"] in groups}

    def units(cmds: set[int]) -> int:
        return sum(c["units"] for c in ok if c["cmd"] in cmds)

    def t(*functions: str, cmds: set[int] = every):
        return spans.totals(functions, cmds)

    ms, us = 1e-6, 1e-3
    out: dict[str, tuple[float, str]] = {}
    out["cli.parse_ms"] = (_ratio(t("cli.parse_profile_document", "cli.parse_rankings_document")[1], n) * ms, "ms")
    emit = t("cli.classification_json", "cli.aggregation_json", "cli.report_json", "cli.census_json", "cli.dumps")
    out["cli.emit_ms"] = (_ratio(emit[1], n) * ms, "ms")

    graph = t("profiles.build_union_graph")
    out["profiles.union_graph_calls"] = (_ratio(graph[0], n), "calls/command")
    out["profiles.union_graph_us"] = (_ratio(graph[1], graph[0]) * us, "us")
    rules = t("aggregators.aggregate_unanimity", "aggregators.aggregate_delegation")
    validate = t("profiles.validate_rankings")
    out["profiles.validate_calls"] = (_ratio(validate[0], rules[0]), "calls/rule_call")
    out["profiles.validate_us"] = (_ratio(validate[1], validate[0]) * us, "us")

    clf = t("conditions.classify")
    out["conditions.classify_ms"] = (_ratio(clf[1], clf[0]) * ms, "ms")
    for metric, function in (
        ("conditions.cycle_cover_ms", "conditions.check_cycle_cover"),
        ("conditions.maximal_sets_ms", "conditions.maximal_cyclic_sets"),
        ("conditions.spanning_ms", "conditions.check_spanning_cycle_free"),
    ):
        calls, _, own = t(function)
        out[metric] = (_ratio(own, calls) * ms, "ms")
    out["conditions.maximal_sets_calls"] = (_ratio(t("conditions.maximal_cyclic_sets")[0], n), "calls/command")

    family = t("aggregators.maximal_cycle_family")
    out["aggregators.family_calls"] = (_ratio(family[0], n), "calls/command")
    out["aggregators.family_ms"] = (_ratio(family[1], family[0]) * ms, "ms")
    delegation_calls = t("aggregators.aggregate_delegation")[0]
    out["aggregators.delegates_calls"] = (_ratio(t("aggregators.pair_delegates")[0], delegation_calls), "calls/rule_call")
    out["aggregators.rule_us"] = (_ratio(rules[2], rules[0]) * us, "us")
    for metric, function in (
        ("relations.linear_extension_us", "relations.linear_extension"),
        ("relations.is_acyclic_us", "relations.is_acyclic"),
        ("relations.strict_part_us", "relations.strict_part"),
    ):
        calls, total, _ = t(function)
        out[metric] = (_ratio(total, calls) * us, "us")

    serial = of("verify")
    profiles = units(serial)
    out["properties.enumerate_us"] = (_ratio(t(ENUMERATE_SPAN, cmds=serial)[1], profiles) * us, "us/profile")
    out["properties.rule_us"] = (_ratio(t(RULE_SPAN, cmds=serial)[1], profiles) * us, "us/profile")
    out["properties.feed_us"] = (_ratio(t("properties.verify_rule", cmds=serial)[2], profiles) * us, "us/profile")
    par = of("verify_par")
    out["properties.rule_busy_ratio"] = (_ratio(t(RULE_SPAN, cmds=par)[1], t(ROOT_SPAN, cmds=par)[1]), "ratio")

    censuses = of("census", "census_par")
    lookups = spans.counter(LOOKUP_COUNTER, censuses)
    misses = spans.totals(("conditions.classify",), censuses)[0]
    out["census.lookups"] = (_ratio(lookups, len(censuses)), "lookups/command")
    out["census.classify_calls"] = (_ratio(misses, len(censuses)), "calls/command")
    out["census.cache_hit_ratio"] = (_ratio(lookups - misses, lookups), "hits/lookup")
    single = of("census")
    census_ns = t("census.census_brute", "census.census_symmetric", cmds=single)[1]
    classify_ns = t("conditions.classify", cmds=single)[1]
    out["census.classify_share"] = (_ratio(classify_ns, census_ns), "ratio")
    out["census.self_ms"] = (_ratio(census_ns - classify_ns, len(single)) * ms, "ms")
    return out
