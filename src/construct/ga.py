"""Genetic search over symbol-to-variable assignments.

Two operator suites share one evolution loop:

  * correct-by-testing (CbT): the baseline. Operators only keep genes
    injective at initialization; crossover may create duplicate genes,
    and nothing stops type or balance violations. Broken candidates are
    discovered when the simulator rejects them.

  * correct-by-construction (CbC): generation, mutation, and crossover
    only emit assignments whose bound model causalizes, which is exactly
    passing the constraint validator (both run check.binding_faults), so
    every individual in every generation simulates.

Every equation is solved for the slot the code writes (constraint C5),
so a problem has one causal plan (check.Structure), built with the
problem, and one simulation kernel (sim.KernelCache), compiled at its
first score; a chromosome only binds variables to the plan's slots,
each slot drawing from its domain (check.domain_fault).
Fitness is evaluated serially, and each problem binds (at slot level)
and causalizes a distinct chromosome once: constructibility checks,
signatures and fitness read one memo of plans, kept for the problem's
life, so a chromosome that later runs score again is not causalized
again. A run simulates once per distinct signature
(GaProblem.signature): a distinct chromosome that hands the kernel the
same data as an earlier one of the run, such as swapped algebraic
locals or equal parameter values, takes its fitness. Chromosome
position i names the variable assigned to symbol slot i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from construct import check, sim
from construct.check import classify_variables, infer_symbol_types
from construct.container import ContainerModel, MalformedTrace, Trace, VariableTable, read_text
from construct.cparse import CodeUnit, ParseError, parse_c_unit
from construct.errors import ConstructError
from construct.isolate import isolate_step_function, load_rule_config, normalize_primitives
from construct.model import BoundModel, apply_assignment
from construct.translate import EquationModel, eliminate_temporaries, translate_to_equations

EARLY_STOP_MSE = 1e-12
BACKTRACK_BUDGET = 1000  # failed placements per CbC construction attempt
RETRY_BUDGET = 100  # CbC attempts per generated, mutated or crossed chromosome


class GaError(ConstructError):
    pass


class SlotsExceedVariables(GaError):
    pass


class LengthMismatch(GaError):
    pass


class ConstraintsUnsatisfiable(GaError):
    def __init__(self, detail: str):
        super().__init__(f"could not construct a valid chromosome: {detail}")


class NoReferenceTrace(GaError):
    pass


def search_space_size(num_slots: int, num_variables: int) -> int:
    """Count of injective assignments: P(V, S) = V! / (V - S)!."""
    if num_slots < 0:
        raise GaError(f"negative slot count {num_slots}")
    if num_slots > num_variables:
        raise SlotsExceedVariables(f"{num_slots} slots > {num_variables} variables")
    return math.perm(num_variables, num_slots)


@dataclass(frozen=True)
class Chromosome:
    genes: tuple

    def __len__(self) -> int:
        return len(self.genes)


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 400
    max_generations: int = 10
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    tournament_size: int = 2
    elitism: int = 2
    rng_seed: int = 0
    early_stop: bool = True

    def __post_init__(self):
        if not 0 < self.elitism < self.population_size:
            raise ValueError("need 0 < elitism < population_size")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be within [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")


@dataclass(frozen=True)
class GaResult:
    best: tuple  # (Chromosome, Fitness)
    per_generation: tuple  # of stat dicts
    evaluations: int


# ---------------------------------------------------------------------------
# Problem bundle
# ---------------------------------------------------------------------------

class GaProblem:
    """Everything the operators need, with type-compatibility tables
    precomputed, and the plan of each genome checked so far."""

    def __init__(self, model: EquationModel, vars: VariableTable,
                 input_trace: Trace | None, reference_trace: Trace | None):
        self.model = model  # slot types inferred
        self.vars = vars
        self.input_trace = input_trace
        self.reference_trace = reference_trace
        self.classification = classify_variables(vars)
        self.structure = check.analyse(model.equations, model.slots)  # slot-level
        # per slot: the indices of the variables in its domain (check.domain_fault)
        self.compat = tuple(tuple(i for i, v in enumerate(vars.variables)
                                  if check.domain_fault(self.structure, slot.id, v) is None)
                            for slot in model.slots)
        self.domains = tuple(map(frozenset, self.compat))  # compat, for membership tests
        self.io_indices = tuple(vars.index[v.name] for v in vars.io)
        self.kernels = sim.KernelCache()  # the problem's kernel, compiled at its first score
        self._plans: dict = {}  # genes -> SimPlan, or None when it does not causalize

    @property
    def num_slots(self) -> int:
        return self.model.num_slots

    @property
    def num_variables(self) -> int:
        return len(self.vars.variables)

    def validate(self, genes) -> check.ValidationReport:
        return check.validate_assignment(self.model, self.vars, genes)

    def bind(self, genes) -> BoundModel:
        """The slot-level bound model: no equation is rewritten to names."""
        names = check.bound_names(self.model, genes, self.vars)
        states = frozenset(names[s] for s, _ in self.structure.states)
        return BoundModel(self.model.equations, self.vars, states, names, self.structure)

    def _plan(self, genes) -> sim.SimPlan | None:
        """The genome's plan, or None when it does not causalize; bound
        at slot level and causalized on the first call only."""
        genes = tuple(genes)
        if genes not in self._plans:
            try:
                self._plans[genes] = sim.causalize(self.bind(genes))
            except check.CausalizeError:
                self._plans[genes] = None
        return self._plans[genes]

    def constructible(self, genes) -> bool:
        """Statically causalizable at slot level, which is exactly
        validate(genes).valid: causalize raises the first fault of the
        same check.binding_faults that validation reports in full."""
        return self._plan(genes) is not None

    def signature(self, genes):
        """What scoring the genome simulates (sim.KernelCache.signature),
        or None when it does not causalize: genomes with equal signatures
        have equal fitness."""
        plan = self._plan(genes)
        return None if plan is None else self.kernels.signature(
            plan, self.classification.outputs)

    def fitness_of(self, genes) -> sim.Fitness:
        """The genome's fitness; INVALID when it does not causalize."""
        return sim.score(self._plan(genes), self.input_trace, self.reference_trace,
                         self.classification.outputs, self.kernels)

    def simulate_outputs(self, genes, inputs: Trace) -> Trace:
        """Bind by name, causalize and simulate the output variables; errors raise."""
        plan = sim.causalize(apply_assignment(self.model, genes, self.vars))
        return sim.simulate(plan, inputs, self.classification.outputs)


def problem_from_container(cm: ContainerModel) -> GaProblem:
    """Run the front half of the pipeline: parse, isolate, normalize,
    eliminate temporaries, translate, infer types. The step function and
    step parameter come from the container's rules.toml, if any."""
    rules = None if cm.root is None else cm.root / "rules.toml"
    rules_text = read_text(rules) if rules is not None and rules.is_file() else ""
    rule_cfg = load_rule_config(rules_text)
    functions = ()
    for name, text in cm.sources:
        try:  # the functions so far, so that a duplicate names its file
            functions = CodeUnit(functions + parse_c_unit(text).functions).functions
        except ParseError as exc:
            raise exc.in_source(f"sources/{name}") from None
    body = isolate_step_function(CodeUnit(functions), rule_cfg)
    body = normalize_primitives(body)
    body = eliminate_temporaries(body)
    model = translate_to_equations(body)
    model = infer_symbol_types(model)
    return GaProblem(model, cm.variable_table, cm.input_trace, cm.reference_trace)


# ---------------------------------------------------------------------------
# Individual generation
# ---------------------------------------------------------------------------

class _Exhausted(Exception):
    pass


def _construct_constrained(problem: GaProblem, rng):
    """One constraint-guided construction attempt.

    Inputs and outputs are seated first (C4), and the remaining slots are
    filled most-constrained-first with backtracking over their domains
    (GaProblem.compat), so unknown variables land exactly on the slots
    the code writes, which settles C2, C3 and C5 structurally. Returns a
    gene list or None on a dead end.
    """
    n_slots = problem.num_slots
    assignment: list = [None] * n_slots
    used: set = set()

    # seat every input and output first (C4)
    io = list(problem.io_indices)
    rng.shuffle(io)
    for var in io:
        options = [s for s in range(n_slots)
                   if assignment[s] is None and var in problem.domains[s]]
        if not options:
            return None
        slot = rng.choice(options)
        assignment[slot] = var
        used.add(var)

    budget = BACKTRACK_BUDGET
    free = {s for s in range(n_slots) if assignment[s] is None}
    left = dict.fromkeys(free, 0)  # per free slot, the unused variables of its domain
    holders: dict = {}  # per variable, the free slots whose domain holds it
    for s in free:
        for v in problem.compat[s]:
            holders.setdefault(v, []).append(s)
            left[s] += v not in used

    def take(var, step: int) -> None:
        for s in holders[var]:
            left[s] -= step

    def extend() -> bool:
        nonlocal budget
        if not free:
            return True
        slot = min(free, key=lambda s: (left[s], s))
        opts = [v for v in problem.compat[slot] if v not in used]
        if not opts:
            return False
        rng.shuffle(opts)
        free.remove(slot)
        for var in opts:
            assignment[slot] = var
            used.add(var)
            take(var, 1)
            if extend():
                return True
            assignment[slot] = None
            used.discard(var)
            take(var, -1)
            budget -= 1
            if budget < 0:
                raise _Exhausted
        free.add(slot)
        return False

    if not extend():
        return None
    return assignment


def generate_individual(mode: str, problem: GaProblem, rng) -> Chromosome:
    """Draw one chromosome.

    CbT: a uniform random injective assignment, nothing else enforced.
    CbC: constraint-guided construction, accepted only when the result
    is constructible; retried up to RETRY_BUDGET times. Equations without
    a causal order (check.Structure.error) admit no chromosome at all.
    """
    if problem.num_slots > problem.num_variables:
        raise SlotsExceedVariables(
            f"{problem.num_slots} slots > {problem.num_variables} variables")
    if mode == "cbt":
        return Chromosome(tuple(rng.sample(range(problem.num_variables),
                                           problem.num_slots)))
    if problem.structure.error is not None:
        raise ConstraintsUnsatisfiable(str(problem.structure.error))

    last_failure = "no construction attempt finished"
    for _ in range(RETRY_BUDGET):
        try:
            genes = _construct_constrained(problem, rng)
        except _Exhausted:
            last_failure = "backtrack budget exhausted"
            continue
        if genes is None:
            last_failure = "construction dead end"
            continue
        if not problem.constructible(genes):
            last_failure = "candidate does not causalize"
            continue
        return Chromosome(tuple(genes))
    raise ConstraintsUnsatisfiable(last_failure)


# ---------------------------------------------------------------------------
# Mutation and crossover
# ---------------------------------------------------------------------------

def mutate(mode: str, c: Chromosome, problem: GaProblem, rng) -> Chromosome:
    """Swap two genes. CbC additionally requires the swapped slots to be
    type-compatible both ways and the result to stay constructible; when
    no acceptable swap is found the chromosome is returned unchanged."""
    genes = list(c.genes)
    n = len(genes)
    if n < 2:
        return c
    if mode == "cbt":
        i, j = rng.sample(range(n), 2)
        genes[i], genes[j] = genes[j], genes[i]
        return Chromosome(tuple(genes))

    for _ in range(RETRY_BUDGET):
        i, j = rng.sample(range(n), 2)
        if genes[j] not in problem.domains[i] or genes[i] not in problem.domains[j]:
            continue
        genes[i], genes[j] = genes[j], genes[i]
        if problem.constructible(genes):
            return Chromosome(tuple(genes))
        genes[i], genes[j] = genes[j], genes[i]
    return c


def _pmx_child(head_parent, tail_parent, k: int, problem: GaProblem):
    """Single-point child with PMX-style duplicate repair.

    Head genes that collide with the inherited tail are replaced by
    chasing the positional mapping between the parents' tails, within
    each slot's domain; returns None when repair is impossible.
    """
    head = list(head_parent[:k])
    tail = list(tail_parent[k:])
    tail_set = set(tail)
    mapping = {tail_parent[p]: head_parent[p] for p in range(k, len(head_parent))}
    for pos in range(len(head)):
        g = head[pos]
        seen = set()
        while g in tail_set:
            if g in seen:
                return None  # mapping cycle, cannot repair
            seen.add(g)
            g = mapping[g]
        if g != head[pos]:
            if g not in problem.domains[pos]:
                return None
            head[pos] = g
    return tuple(head + tail)


def crossover(mode: str, a: Chromosome, b: Chromosome, rng,
              problem: GaProblem | None = None) -> tuple:
    """Single-point crossover.

    CbT children may carry duplicate genes, left for the validator and
    simulator to reject. CbC children are PMX-repaired within type groups
    and must stay constructible; when no crossing point works the parents
    are returned unchanged.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    n = len(a)
    if mode == "cbt":
        k = rng.randrange(n)
        c1 = a.genes[:k] + b.genes[k:]
        c2 = b.genes[:k] + a.genes[k:]
        return Chromosome(c1), Chromosome(c2)

    assert problem is not None, "CbC crossover needs the problem"
    for _ in range(RETRY_BUDGET):
        k = rng.randrange(n)
        c1 = _pmx_child(a.genes, b.genes, k, problem)
        c2 = _pmx_child(b.genes, a.genes, k, problem)
        if c1 is None or c2 is None:
            continue
        if problem.constructible(c1) and problem.constructible(c2):
            return Chromosome(c1), Chromosome(c2)
    return Chromosome(a.genes), Chromosome(b.genes)


# ---------------------------------------------------------------------------
# Evolution loop
# ---------------------------------------------------------------------------

def _evaluate(problem: GaProblem, population, cache: dict, scored: dict):
    """Fitness for each individual, evaluated serially in population
    order; cache keyed by genes, scored by signature, so a genome that
    simulates as an earlier one did takes its fitness. Returns the
    fitnesses and the number of new (distinct genome) evaluations."""
    todo = list(dict.fromkeys(
        c.genes for c in population if c.genes not in cache))
    for genes in todo:
        key = problem.signature(genes)
        if key not in scored:
            scored[key] = problem.fitness_of(genes)
        cache[genes] = scored[key]
    return [cache[c.genes] for c in population], len(todo)


def _mean(values) -> float:
    try:
        return math.fsum(values) / len(values)
    except OverflowError:  # the sum passes the float range, the mean does not
        return math.fsum(v / len(values) for v in values)


def _generation_stats(gen: int, fitnesses) -> dict:
    finite = sorted(f.mse for f in fitnesses if f.is_finite)
    best = min(fitnesses)
    return {
        "gen": gen,
        "best_mse": best.mse,
        "mean_finite_mse": _mean(finite) if finite else None,
        "simulatable_fraction": len(finite) / len(fitnesses),
    }


def run_ga(mode: str, problem: GaProblem, cfg: GaConfig,
           on_individual=None) -> GaResult:
    """Generational GA with tournament selection and elitism.

    Deterministic for a fixed seed: the loop owns the RNG and fitness
    evaluation is pure. on_individual, when given, is called with every
    evaluated (chromosome, fitness) pair, elites included.
    """
    import random as _random

    if mode not in ("cbc", "cbt"):
        raise GaError(f"unknown mode {mode!r}")
    if problem.input_trace is None or problem.reference_trace is None:
        raise NoReferenceTrace("the container provides no input/reference traces")
    reference = problem.reference_trace
    for name in problem.classification.outputs:
        if name not in reference.columns:
            raise MalformedTrace(f"reference trace lacks output column {name!r}")
    times = problem.input_trace.times
    if len(reference.times) != len(times):
        raise MalformedTrace(f"reference trace has {len(reference.times)} rows, "
                             f"input trace {len(times)}")
    for which, trace in (("input", problem.input_trace), ("reference", reference)):
        for name, column in trace.columns.items():
            if len(column) != len(times):
                raise MalformedTrace(f"{which} column {name!r} has {len(column)} values "
                                     f"for {len(times)} times")
    h = problem.kernels.step(times)  # NonUniformGrid, once for every genome
    for t, r in zip(times, reference.times):
        if abs(r - t) > sim.GRID_RTOL * abs(h):
            raise MalformedTrace(f"reference time {r!r} differs from input time {t!r}")
    rng = _random.Random(cfg.rng_seed)

    cache: dict = {}  # genes -> Fitness
    scored: dict = {}  # signature -> Fitness
    evaluations = 0
    population = [generate_individual(mode, problem, rng)
                  for _ in range(cfg.population_size)]
    stats = []
    best_c = None
    best_f = None

    def tournament(ranks):
        picks = rng.sample(range(len(population)), min(cfg.tournament_size,
                                                       len(population)))
        return population[min(map(ranks.__getitem__, picks))[1]]

    for gen in range(cfg.max_generations):
        if gen > 0:
            next_pop = [population[i] for _, i in sorted(ranks)[:cfg.elitism]]
            while len(next_pop) < cfg.population_size:
                p1 = tournament(ranks)
                p2 = tournament(ranks)
                if rng.random() < cfg.crossover_rate:
                    c1, c2 = crossover(mode, p1, p2, rng, problem)
                else:
                    c1, c2 = Chromosome(p1.genes), Chromosome(p2.genes)
                for child in (c1, c2):
                    if rng.random() < cfg.mutation_rate:
                        child = mutate(mode, child, problem, rng)
                    if len(next_pop) < cfg.population_size:
                        next_pop.append(child)
            population = next_pop

        fitnesses, n_eval = _evaluate(problem, population, cache, scored)
        evaluations += n_eval
        if on_individual is not None:
            for c, f in zip(population, fitnesses):
                on_individual(c, f)
        stats.append(_generation_stats(gen, fitnesses))

        ranks = [(f.sort_key(), i) for i, f in enumerate(fitnesses)]  # the selection order
        gen_best = min(ranks)[1]
        if best_f is None or fitnesses[gen_best] < best_f:
            best_c, best_f = population[gen_best], fitnesses[gen_best]
        if cfg.early_stop and best_f.is_finite and best_f.mse < EARLY_STOP_MSE:
            break

    return GaResult((best_c, best_f), tuple(stats), evaluations)


def report_dict(result: GaResult, mode: str, cfg: GaConfig) -> dict:
    """The report in its serialized field order."""
    best_c, best_f = result.best
    return {
        "mode": mode,
        "population": cfg.population_size,
        "generations": cfg.max_generations,
        "seed": cfg.rng_seed,
        "per_generation": list(result.per_generation),
        "best_genes": list(best_c.genes),
        "best_mse": best_f.mse,
        "evaluations": result.evaluations,
    }
