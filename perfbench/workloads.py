"""The three workloads: how each builds its inputs, runs one op, checks the
op's output, and runs the same op under tracing.

An *op* is one unit of user work:

* ``reduce``: ``iidiag solve FILE --json`` in-process on one diagram;
* ``sweep``: one ``sensitivity.sweep`` over a point-valued diagram;
* ``verify``: ``solve``, then ``soundness_check``, then ``exact_envelope``.

Ops come in blocks. A run stops only at a block boundary, so every run
measures whole blocks and the mix of op sizes is the same from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path
from random import Random

import corpus

import iidiag.cli as cli
import iidiag.exact as exact
import iidiag.sensitivity as sensitivity
import iidiag.solver as solver
from iidiag.diagram_io import load_diagram
from iidiag.model import NodeKind, build_diagram, check_structure
from iidiag.solver import apply_step, next_step
from iidiag.transforms import AdmissibleSet, StepKind

TOL = 1e-9
RANGES = (0.0, 0.01, 0.05, 0.10)
SOUNDNESS_SAMPLES = 16
ENVELOPE_CAP = 81  # vertex combinations per verify op, so one op stays bounded
REFERENCE = Path(__file__).resolve().parent / "reference" / "reduce.json"
VALUE_STREAMS = 4  # reduce draws its numbers from stream seed % VALUE_STREAMS

KINDS = {
    StepKind.REMOVE_CHANCE_INTO_VALUE: "fold",
    StepKind.REMOVE_DECISION: "decision",
    StepKind.MARGINALIZE_CHANCE: "marginalize",
    StepKind.REVERSE_ARC: "reverse",
    StepKind.REMOVE_BARREN: "barren",
}


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _write(path: Path, doc: dict) -> Path:
    path.write_text(corpus.canonical(doc), encoding="utf-8")
    return path


def _subsets(nodes):
    """Every nonempty subset, smallest first (the CLI's ``--subsets`` order)."""
    out = [
        tuple(n for i, n in enumerate(nodes) if mask >> i & 1)
        for mask in range(1, 2 ** len(nodes))
    ]
    out.sort(key=len)
    return tuple(out)


def policies_digest(policies: dict) -> str:
    text = json.dumps(policies, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _project(info_idx: int, cards, positions, sub_cards) -> int:
    """Row of a decision's full information state in a table keyed by a
    subset of its parents (mixed radix, last parent fastest)."""
    values = []
    for card in reversed(cards):
        values.append(info_idx % card)
        info_idx //= card
    values.reverse()
    index = 0
    for pos, card in zip(positions, sub_cards):
        index = index * card + values[pos]
    return index


# ---------------------------------------------------------------------------
# Replay of solve(): next_step -> apply_step, timed per transform kind
# ---------------------------------------------------------------------------

def _cells(node) -> int:
    if node.chance_table is not None:
        return len(node.chance_table.rows) * node.cardinality
    if node.value_table is not None:
        return len(node.value_table.rows)
    return 0


def replay_solve(diagram, tracer):
    """Reduce ``diagram`` step by step with spans around ``next_step``, each
    transform and a re-run of ``check_structure`` on every intermediate
    diagram. Returns the final interval and the policies as solve() would."""
    policies = {}
    while len(diagram.nodes) > 1:
        with tracer.span("solver.next_step"):
            step = next_step(diagram)
        kind = KINDS[step.kind]
        removed = diagram.node(step.node)
        with tracer.span(f"transforms.{kind}"):
            after, step = apply_step(diagram, step)
        tracer.count(f"transforms.{kind}.cells_in", sum(
            _cells(n) for name, n in diagram.nodes.items() if after.nodes.get(name) is not n
        ))
        tracer.count(f"transforms.{kind}.cells_out", sum(
            _cells(n) for name, n in after.nodes.items() if diagram.nodes.get(name) is not n
        ))
        with tracer.span("model.check_structure"):
            check_structure(after)
        tracer.count("solver.steps")
        if step.admissible is not None:
            policies[step.node] = step.admissible
        elif step.kind is StepKind.REMOVE_BARREN and removed.kind is NodeKind.DECISION:
            alts = removed.variable.outcomes
            policies[step.node] = AdmissibleSet(
                step.node, alts, (), (), (tuple(range(len(alts))),)
            )
        diagram = after
    return diagram.value_node.value_table.rows[0], policies


def check_replay(diagram, report, tracer) -> None:
    interval, policies = replay_solve(diagram, tracer)
    _expect(interval == report.final_interval,
            f"replay interval {interval} != solve {report.final_interval}")
    _expect(policies == report.policies, "replay policies differ from solve")


def traced_parse(path: Path, tracer) -> None:
    """Time the JSON decode alone and the model build on pre-decoded data."""
    raw = path.read_bytes()
    tracer.count("diagram_io.bytes", len(raw))
    with tracer.span("diagram_io.json_decode"):
        data = json.loads(raw)
    with tracer.span("model.build_diagram"):
        build_diagram(data)


@contextlib.contextmanager
def patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# Shared op bodies (used by every workload's warm-up, too)
# ---------------------------------------------------------------------------

def cli_solve(path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


def check_cli_solve(doc: dict, result, reference=None) -> None:
    code, stdout, stderr = result
    _expect(code == 0, f"exit {code}: {stderr.strip()}")
    out = json.loads(stdout)
    lo, hi = out["interval"]
    _expect(math.isfinite(lo) and math.isfinite(hi) and lo <= hi + TOL,
            f"bad interval {lo}, {hi}")
    decisions = {n["name"]: n for n in doc["nodes"] if n["kind"] == "decision"}
    cards = {v["name"]: len(v["outcomes"]) for v in doc["variables"]}
    cards.update({d: len(n["alternatives"]) for d, n in decisions.items()})
    _expect(set(out["policies"]) == set(decisions), "policies do not cover the decisions")
    for name, policy in out["policies"].items():
        alts = decisions[name]["alternatives"]
        _expect(policy["alternatives"] == alts, f"{name}: alternatives differ")
        _expect(len(policy["sets"]) == math.prod(cards[p] for p in policy["info_parents"]),
                f"{name}: wrong number of information states")
        for members in policy["sets"]:
            _expect(members and members == sorted(set(members))
                    and 0 <= members[0] and members[-1] < len(alts),
                    f"{name}: malformed admissible set {members}")
    if reference is not None:
        ref_lo, ref_hi, digest = reference
        _expect(abs(lo - ref_lo) <= TOL and abs(hi - ref_hi) <= TOL,
                f"interval [{lo}, {hi}] differs from reference [{ref_lo}, {ref_hi}]")
        _expect(policies_digest(out["policies"]) == digest, "admissible sets differ from reference")


def traced_cli_solve(path: Path, tracer):
    solves: list = []
    with patched(cli, "load_diagram", tracer.wrap("diagram_io.load_diagram", load_diagram)), \
            patched(cli, "solve", tracer.wrap("solver.solve", cli.solve, solves)):
        with tracer.span("cli.main"):
            result = cli_solve(path)
    traced_parse(path, tracer)
    for (diagram,), report, _ in solves:
        check_replay(diagram, report, tracer)
    return result


def run_sweep(diagram, targets):
    spec = sensitivity.SensitivitySpec(
        target_nodes=targets, ranges=RANGES, subsets=_subsets(targets)
    )
    return sensitivity.sweep(diagram, spec, jobs=1)


def check_sweep(targets, report) -> None:
    """The range-0 cell equals the point value. Widening shrinks rows and
    leaves free mass, so the point model belongs to every widened set: every
    cell contains the point value, and widths do not shrink as the range
    grows."""
    _expect(len(report.cells) == len(RANGES) * len(_subsets(targets)), "missing cells")
    point = report.point_value
    for subset in _subsets(targets):
        lo, hi = report.cell(subset, 0.0).interval
        _expect(abs(lo - point) <= TOL and abs(hi - point) <= TOL,
                f"{subset}: range-0 cell [{lo}, {hi}] != point value {point}")
        width = 0.0
        for range_ in RANGES:
            lo, hi = report.cell(subset, range_).interval
            _expect(lo - TOL <= point <= hi + TOL,
                    f"{subset} at {range_}: [{lo}, {hi}] misses point value {point}")
            _expect(hi - lo >= width - TOL, f"{subset}: width shrinks at range {range_}")
            width = hi - lo


def traced_sweep(diagram, targets, tracer):
    widened: list = []
    solves: list = []
    points: list = []
    with patched(sensitivity, "inject_range", tracer.wrap("sensitivity.inject_range", sensitivity.inject_range, widened)), \
            patched(sensitivity, "solve", tracer.wrap("solver.solve", sensitivity.solve, solves)), \
            patched(sensitivity, "point_solve", tracer.wrap("exact.point_solve", sensitivity.point_solve, points)):
        with tracer.span("sensitivity.sweep"):
            report = run_sweep(diagram, targets)
    tracer.count("sensitivity.cells", len(report.cells))
    for (args, _, _), ((widened_diagram,), solved, ms) in zip(widened, solves):
        key = "cost.point_engine" if args[2] == 0.0 else "cost.interval_engine"
        tracer.count(f"{key}_ms", ms)
        tracer.count(f"{key}_n")
        check_replay(widened_diagram, solved, tracer)
    for (point_diagram, _), _, ms in points:
        tracer.count("cost.point_solve_ms", ms)
        tracer.count("cost.point_solve_n")
        tracer.count("exact.point_solve_leaves", joint_leaves(point_diagram))
    return report


def joint_leaves(diagram) -> int:
    return math.prod(n.cardinality for n in diagram.nodes.values() if n.variable is not None)


def run_verify(diagram, varied, box, seed):
    report = solver.solve(diagram)
    sound = exact.soundness_check(diagram, samples=SOUNDNESS_SAMPLES, seed=seed, report=report)
    envelope = exact.exact_envelope(diagram, varied, include_value_box=box)
    return report, sound, envelope


def check_verify(diagram, result) -> None:
    report, sound, envelope = result
    lo, hi = report.final_interval
    _expect(sound.passed, f"soundness check failed: {sound}")
    _expect(envelope.ev_min >= lo - TOL and envelope.ev_max <= hi + TOL,
            f"envelope [{envelope.ev_min}, {envelope.ev_max}] escapes [{lo}, {hi}]")
    for name, per in envelope.admissible_union.items():
        admitted = report.policies[name]
        parents = diagram.node(name).parents
        cards = diagram.cards_of(parents)
        positions = [parents.index(p) for p in admitted.info_parents]
        for info_idx, members in per.items():
            allowed = admitted.sets[_project(info_idx, cards, positions, admitted.info_cards)]
            _expect(set(members) <= set(allowed), f"{name}: optimum outside admissible set")


def traced_verify(diagram, varied, box, seed, tracer):
    points: list = []
    solves: list = []
    with patched(exact, "point_solve", tracer.wrap("exact.point_solve", exact.point_solve, points)), \
            patched(exact, "soundness_check", tracer.wrap("exact.soundness_check", exact.soundness_check)), \
            patched(exact, "exact_envelope", tracer.wrap("exact.exact_envelope", exact.exact_envelope)), \
            patched(solver, "solve", tracer.wrap("solver.solve", solver.solve, solves)):
        with tracer.span("verify"):
            result = run_verify(diagram, varied, box, seed)
    for (point_diagram, _), _, _ in points:
        tracer.count("exact.point_solve_leaves", joint_leaves(point_diagram))
    tracer.count("exact.envelope_configs", result[2].configurations_evaluated)
    for (solved_diagram,), report, _ in solves:
        check_replay(solved_diagram, report, tracer)
    return result


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """``setup`` builds the inputs and warms every layer up; ``blocks``
    yields lists of items forever; ``run``/``check``/``traced`` act on one
    item."""

    compared = 0  # ops whose output was compared with a recorded reference

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def load(path: Path, tracer=None):
        if tracer is None:
            return load_diagram(path)
        diagram = tracer.wrap("diagram_io.load_diagram", load_diagram)(path)
        traced_parse(path, tracer)
        return diagram

    def warm_up(self, tracer=None) -> None:
        """One small op of each kind, so every layer has run before timing."""
        doc = corpus.chain(Random("warmup:shape"), Random(f"warmup:{self.seed}"), 5)
        path = _write(self.workdir / "warmup-chain.iid.json", doc)
        wild = load_diagram(_write(self.workdir / "warmup-wildcatter.iid.json", corpus.fixture("wildcatter")))
        minimal = load_diagram(_write(self.workdir / "warmup-minimal.iid.json", corpus.fixture("minimal")))
        targets = ("OIL", "SEISMIC", "COST")
        if tracer is None:
            check_cli_solve(doc, cli_solve(path))
            check_sweep(targets, run_sweep(wild, targets))
            check_verify(minimal, run_verify(minimal, ("C",), False, 0))
        else:
            check_cli_solve(doc, traced_cli_solve(path, tracer))
            check_sweep(targets, traced_sweep(wild, targets, tracer))
            check_verify(minimal, traced_verify(minimal, ("C",), False, 0, tracer))


class Reduce(Workload):
    """Structurally distinct interval diagrams, generated one block at a
    time just before use (outside the timed op), so no structure repeats in
    a run however fast the program gets. Block b holds one chain per length
    in CHAIN_N, one wide diagram per width in WIDE_M and one multi-stage
    diagram per stage count in STAGES_ND; block 0 also holds the fixtures."""

    CHAIN_N = (10, 15, 20, 25, 30, 35, 40)
    WIDE_M = (4, 5, 6, 7, 7)
    STAGES_ND = (3, 4, 5)

    def setup(self, tracer=None) -> None:
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.fixture_reference = data["fixtures"]
        self.reference = data["streams"][self.seed % VALUE_STREAMS]
        self.warm_up(tracer)

    def block_docs(self, b: int) -> list[tuple[str, dict]]:
        docs = []
        if b == 0:
            docs += [(f"fixture:{n}", corpus.fixture(n)) for n in corpus.FIXTURES]
        plan = [("chain", n) for n in self.CHAIN_N] + [("wide", m) for m in self.WIDE_M] \
            + [("stages", nd) for nd in self.STAGES_ND]
        shape = Random(f"reduce:shape:{b}")
        values = Random(f"reduce:{self.seed % VALUE_STREAMS}:{b}")
        shape.shuffle(plan)
        for family, size in plan:
            for _ in range(1000):
                doc = getattr(corpus, family)(shape, values, size)
                # a digest, not the tuple, so the set adds no objects for
                # the garbage collector to walk during timed ops
                key = hashlib.sha1(repr(corpus.structure(doc)).encode()).digest()
                if key not in self.seen:
                    break
            else:
                raise RuntimeError(f"no new {family} {size} structure after 1000 draws")
            self.seen.add(key)
            docs.append((family, doc))
        return docs

    def blocks(self):
        self.seen: set = set()
        index = 0
        for b in itertools.count():
            items = []
            for label, doc in self.block_docs(b):
                path = _write(self.workdir / f"r{index % 64}.iid.json", doc)
                reference = None
                if label.startswith("fixture:"):
                    reference = self.fixture_reference.get(label.split(":")[1])
                elif index < len(self.reference):
                    reference = self.reference[index]
                items.append((doc, path, reference))
                index += 1
            yield items

    def run(self, item):
        return cli_solve(item[1])

    def check(self, item, result) -> None:
        if item[2] is not None:
            self.compared += 1
        check_cli_solve(item[0], result, item[2])

    def traced(self, item, tracer):
        return traced_cli_solve(item[1], tracer)


class Sweep(Workload):
    """The wildcatter fixture plus small generated point diagrams, swept over
    every nonempty subset of up to three chance nodes at four ranges. The
    same few structures are solved again and again."""

    SMALL = ((3, 1), (4, 1), (4, 2)) * 23  # (chance, decision) nodes per diagram

    def setup(self, tracer=None) -> None:
        shape, values = Random("sweep:shape"), Random(f"sweep:{self.seed}")
        docs = [("wildcatter", corpus.fixture("wildcatter"), ("OIL", "SEISMIC", "COST"))]
        for i, (n_chance, n_decision) in enumerate(self.SMALL):
            doc = corpus.small(shape, values, n_chance, n_decision)
            chance = corpus.chance_names(doc)
            targets = tuple(sorted(shape.sample(chance, 3), key=chance.index))
            docs.append((f"small{i}", doc, targets))
        self.items = []
        for label, doc, targets in docs:
            path = _write(self.workdir / f"{label}.iid.json", doc)
            diagram = self.load(path, tracer)
            self.items.append((diagram, targets))
        self.warm_up(tracer)

    def blocks(self):
        while True:
            yield self.items

    def run(self, item):
        return run_sweep(*item)

    def check(self, item, result) -> None:
        check_sweep(item[1], result)

    def traced(self, item, tracer):
        return traced_sweep(*item, tracer)


class Verify(Workload):
    """Fixtures, small random point diagrams and partially observed chains
    with one to three widened nodes, and a ladder of chains whose joint
    grows by 3x per rung (27 to 6561 leaves), so the exponential cost of
    enumeration stays visible."""

    SMALL = ((2, 1), (3, 1), (3, 0)) * 9  # (chance, decision) nodes per diagram
    OBSERVED = (1, 2) * 7  # signals between the hidden state and the decision
    LADDER = (1, 2, 3, 4, 5, 6)

    def setup(self, tracer=None) -> None:
        shape, values = Random("verify:shape"), Random(f"verify:{self.seed}")
        plans = [
            ("minimal", corpus.fixture("minimal"), ("C",), False),
            ("survey", corpus.fixture("survey"), ("STATE", "SIGNAL"), True),
            ("wildcatter", *self._widened(lambda: corpus.fixture("wildcatter"), shape, values), False),
        ]
        for i, (n_chance, n_decision) in enumerate(self.SMALL):
            make = lambda: corpus.small(shape, values, n_chance, n_decision)  # noqa: E731
            plans.append((f"small{i}", *self._widened(make, shape, values), False))
        for i, length in enumerate(self.OBSERVED):
            make = lambda: corpus.observed(shape, values, length)  # noqa: E731
            plans.append((f"observed{i}", *self._widened(make, shape, values), False))
        for rung in self.LADDER:
            doc = corpus.widen(corpus.ladder(values, rung), ("H",), values.choice((0.05, 0.1, 0.25)))
            plans.append((f"ladder{rung}", doc, ("H",), False))
        self.items = []
        for i, (label, doc, varied, box) in enumerate(plans):
            path = _write(self.workdir / f"{label}.iid.json", doc)
            diagram = self.load(path, tracer)
            self.items.append((diagram, varied, box, 1000 + i))
        self.warm_up(tracer)

    @staticmethod
    def _widened(make, shape, values):
        """A document from ``make()`` with 1-3 random chance nodes widened,
        keeping the envelope within ENVELOPE_CAP vertex combinations; draws
        another document while none of its chance nodes qualifies.
        Returns (widened document, widened nodes)."""
        while True:
            doc = make()
            tables = {n["name"]: n["table"] for n in doc["nodes"] if n["kind"] == "chance"}
            configs = {name: math.prod(len(row) for row in rows) for name, rows in tables.items()}
            chance = [name for name in tables if configs[name] <= ENVELOPE_CAP]
            if chance:
                break
        while True:
            picked = sorted(shape.sample(chance, shape.randint(1, min(3, len(chance)))),
                            key=chance.index)
            if math.prod(configs[name] for name in picked) <= ENVELOPE_CAP:
                break
        return corpus.widen(doc, picked, values.choice((0.01, 0.05, 0.1, 0.25))), tuple(picked)

    def blocks(self):
        while True:
            yield self.items

    def run(self, item):
        return run_verify(*item)

    def check(self, item, result) -> None:
        check_verify(item[0], result)

    def traced(self, item, tracer):
        return traced_verify(*item, tracer)


WORKLOADS = {"reduce": Reduce, "sweep": Sweep, "verify": Verify}
