"""Genetic search over symbol-to-variable assignments.

Two operator suites share one evolution loop:

  * correct-by-testing (CbT): the baseline. Operators only keep genes
    injective at initialization; crossover may create duplicate genes,
    and nothing stops type or balance violations. Broken candidates are
    discovered when the simulator rejects them.

  * correct-by-construction (CbC): generation, mutation, and crossover
    only emit assignments that pass the constraint validator and whose
    bound model causalizes, so every individual in every generation
    simulates.

Fitness is evaluated serially, once per distinct chromosome. Chromosome
position i names the variable assigned to symbol slot i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from construct import check, sim
from construct.check import Classification, classify_variables, infer_symbol_types
from construct.container import ContainerModel, MalformedTrace, Trace, VariableTable
from construct.cparse import parse_c_unit, CodeUnit
from construct.errors import ConstructError
from construct.isolate import (
    RuleConfig, isolate_step_function, load_rule_config, normalize_primitives,
)
from construct.model import BoundModel, apply_assignment
from construct.translate import EquationModel, eliminate_temporaries, translate_to_equations

EARLY_STOP_MSE = 1e-12
BACKTRACK_BUDGET = 1000  # failed placements per CbC construction attempt


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
    retry_budget: int = 100
    early_stop: bool = True
    cbt_repair: bool = False

    def __post_init__(self):
        if not 0 < self.elitism < self.population_size:
            raise ValueError("need 0 < elitism < population_size")
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

@dataclass(frozen=True)
class GaProblem:
    """Everything the operators need, with type-compatibility tables
    precomputed."""

    model: EquationModel  # slot types inferred
    vars: VariableTable
    input_trace: Trace | None
    reference_trace: Trace | None
    classification: Classification = field(init=False)
    compat: tuple = field(init=False)  # per slot: tuple of variable indices
    unknown_indices: frozenset = field(init=False)
    io_indices: tuple = field(init=False)
    structure: sim.Structure = field(init=False)  # slot-level, see sim.analyse
    state_slots: frozenset = field(init=False)
    # per algebraic equation: the non-state slots it could be solved for
    solve_candidates: tuple = field(init=False)

    def __post_init__(self):
        cls = classify_variables(self.vars)
        unknown_names = cls.unknowns
        unknown_idx = frozenset(
            i for i, v in enumerate(self.vars.variables) if v.name in unknown_names)
        compat = []
        for slot in self.model.slots:
            ok = []
            for i, v in enumerate(self.vars.variables):
                if slot.inferred_type not in ("Unknown", v.vtype):
                    continue
                # a state must be determined by the system, so its slot
                # can only take an unknown
                if slot.is_state and i not in unknown_idx:
                    continue
                ok.append(i)
            compat.append(tuple(ok))
        io = tuple(i for i, v in enumerate(self.vars.variables)
                   if v.causality in ("input", "output"))
        structure = sim.analyse(self.model.equations, self.model.slots)
        states = frozenset(s.id for s in self.model.slots if s.is_state)
        candidates = tuple(tuple(r for r in iso if r not in states)
                           for iso in structure.isolated)
        object.__setattr__(self, "classification", cls)
        object.__setattr__(self, "compat", tuple(compat))
        object.__setattr__(self, "unknown_indices", unknown_idx)
        object.__setattr__(self, "io_indices", io)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "state_slots", states)
        object.__setattr__(self, "solve_candidates", candidates)

    @property
    def num_slots(self) -> int:
        return self.model.num_slots

    @property
    def num_variables(self) -> int:
        return len(self.vars)

    def validate(self, genes) -> check.ValidationReport:
        return check.validate_assignment(self.model, self.vars, genes)

    def bind(self, genes) -> BoundModel:
        """The bound model, carrying the slot-level structure."""
        return apply_assignment(self.model, genes, self.vars, self.structure)

    def constructible(self, genes) -> bool:
        """Statically causalizable at slot level, which implies C0..C4:
        duplicate genes, type groups (seeded with the slot types), state,
        input and balance checks and the perfect matching together cover
        every constraint, so no separate validation runs."""
        try:
            sim.causalize(self.bind(genes))
        except sim.CausalizeError:
            return False
        return True

    def fitness_of(self, genes) -> sim.Fitness:
        return sim.fitness(self.bind(genes), self.input_trace, self.reference_trace)

    def simulate_outputs(self, genes, inputs: Trace) -> Trace:
        """Bind, causalize and simulate the output variables; errors raise."""
        plan = sim.causalize(self.bind(genes))
        return sim.simulate(plan, inputs, self.classification.outputs)


def merge_units(units) -> CodeUnit:
    functions = []
    for u in units:
        functions.extend(u.functions)
    return CodeUnit(tuple(functions))


def problem_from_container(cm: ContainerModel, **rule_overrides) -> GaProblem:
    """Run the front half of the pipeline: parse, isolate, normalize,
    eliminate temporaries, translate, infer types. The rules come from
    the container's rules.toml, if any, with rule_overrides applied."""
    rule_cfg = RuleConfig()
    if cm.root is not None and (cm.root / "rules.toml").is_file():
        rule_cfg = load_rule_config((cm.root / "rules.toml").read_text())
    rule_cfg = replace(rule_cfg, **rule_overrides)
    unit = merge_units(parse_c_unit(text) for _, text in cm.sources)
    body = isolate_step_function(unit, rule_cfg)
    body = normalize_primitives(body, rule_cfg)
    body = eliminate_temporaries(body)
    model = translate_to_equations(body, rule_cfg)
    model = infer_symbol_types(model)
    return GaProblem(model, cm.variable_table, cm.input_trace, cm.reference_trace)


# ---------------------------------------------------------------------------
# Individual generation
# ---------------------------------------------------------------------------

class _Exhausted(Exception):
    pass


def _sample_responsibility(problem: GaProblem, rng, tries: int = 50):
    """Pick, for every algebraic equation, the slot it will be solved
    for: injective over slots and acyclic in the induced dependency
    order. An acyclic assignment is the unique perfect matching of the
    solvability graph, so causalization is guaranteed to find it.
    Returns {algebraic equation index: slot id} or None."""
    alg = range(len(problem.solve_candidates))
    if not all(problem.solve_candidates):
        return None

    for _ in range(tries):
        resp: dict = {}
        used: set = set()
        order = list(alg)
        rng.shuffle(order)

        def pick(k: int) -> bool:
            if k == len(order):
                return True
            i = order[k]
            opts = [s for s in problem.solve_candidates[i] if s not in used]
            rng.shuffle(opts)
            for s in opts:
                resp[i] = s
                used.add(s)
                if pick(k + 1):
                    return True
                del resp[i]
                used.discard(s)
            return False

        if not pick(0):
            return None  # no injective assignment exists at all

        owner = {s: i for i, s in resp.items()}
        deps = {i: {owner[r] for r in problem.structure.counts[i]
                    if r in owner and owner[r] != i} for i in alg}
        if not sim.topological_order(deps)[1]:  # else cyclic, resample
            return resp
    return None


def _construct_constrained(problem: GaProblem, rng):
    """One constraint-guided construction attempt.

    A responsibility map fixes which slots carry the system's unknowns;
    inputs and outputs are seated next (C4), and the remaining slots are
    filled most-constrained-first with backtracking over type-compatible
    variables. Unknown variables land exactly on responsible and state
    slots, which settles C2, C3, and causalizability structurally.
    Returns a gene list or None on a dead end.
    """
    resp = _sample_responsibility(problem, rng)
    if resp is None:
        return None
    n_slots = problem.num_slots
    unknown_slots = set(resp.values()) | set(problem.state_slots)
    unknown_idx = problem.unknown_indices

    assignment: list = [None] * n_slots
    used: set = set()

    def domain_of(slot: int) -> list:
        pool = problem.compat[slot]
        if slot in unknown_slots:
            return [v for v in pool if v in unknown_idx and v not in used]
        return [v for v in pool if v not in unknown_idx and v not in used]

    # seat every input and output first (C4)
    io = list(problem.io_indices)
    rng.shuffle(io)
    for var in io:
        side = unknown_slots if var in unknown_idx else \
            set(range(n_slots)) - unknown_slots
        options = [s for s in sorted(side)
                   if assignment[s] is None and var in problem.compat[s]]
        if not options:
            return None
        slot = rng.choice(options)
        assignment[slot] = var
        used.add(var)

    budget = BACKTRACK_BUDGET

    def extend() -> bool:
        nonlocal budget
        free = [s for s in range(n_slots) if assignment[s] is None]
        if not free:
            return True
        domains = {s: domain_of(s) for s in free}
        slot = min(free, key=lambda s: (len(domains[s]), s))
        opts = domains[slot]
        if not opts:
            return False
        rng.shuffle(opts)
        for var in opts:
            assignment[slot] = var
            used.add(var)
            if extend():
                return True
            assignment[slot] = None
            used.discard(var)
            budget -= 1
            if budget < 0:
                raise _Exhausted
        return False

    if not extend():
        return None
    return assignment


def generate_individual(mode: str, problem: GaProblem, rng,
                        cfg: GaConfig = GaConfig()) -> Chromosome:
    """Draw one chromosome.

    CbT: a uniform random injective assignment, nothing else enforced.
    CbC: constraint-guided construction, accepted only when the result
    is constructible; retried up to the retry budget.
    """
    if problem.num_slots > problem.num_variables:
        raise SlotsExceedVariables(
            f"{problem.num_slots} slots > {problem.num_variables} variables")
    if mode == "cbt":
        return Chromosome(tuple(rng.sample(range(problem.num_variables),
                                           problem.num_slots)))

    last_failure = "no construction attempt finished"
    for _ in range(cfg.retry_budget):
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

def mutate(mode: str, c: Chromosome, problem: GaProblem, rng,
           cfg: GaConfig = GaConfig()) -> Chromosome:
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

    compat_sets = [set(cs) for cs in problem.compat]
    for _ in range(cfg.retry_budget):
        i, j = rng.sample(range(n), 2)
        if genes[j] not in compat_sets[i] or genes[i] not in compat_sets[j]:
            continue
        genes[i], genes[j] = genes[j], genes[i]
        if problem.constructible(genes):
            return Chromosome(tuple(genes))
        genes[i], genes[j] = genes[j], genes[i]
    return c


def _pmx_child(head_parent, tail_parent, k: int, problem: GaProblem | None):
    """Single-point child with PMX-style duplicate repair.

    Head genes that collide with the inherited tail are replaced by
    chasing the positional mapping between the parents' tails. With a
    problem given, replacements must stay type-compatible; returns None
    when repair is impossible.
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
            if problem is not None and g not in set(problem.compat[pos]):
                return None
            head[pos] = g
    return tuple(head + tail)


def crossover(mode: str, a: Chromosome, b: Chromosome, rng,
              cfg: GaConfig = GaConfig(),
              problem: GaProblem | None = None) -> tuple:
    """Single-point crossover.

    CbT children may carry duplicate genes (left for the validator and
    simulator to reject) unless cbt_repair is set. CbC children are
    PMX-repaired within type groups and must stay constructible; when no
    crossing point works the parents are returned unchanged.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    n = len(a)
    if mode == "cbt":
        k = rng.randrange(n)
        c1 = a.genes[:k] + b.genes[k:]
        c2 = b.genes[:k] + a.genes[k:]
        if cfg.cbt_repair:
            c1 = _pmx_child(a.genes, b.genes, k, None) or c1
            c2 = _pmx_child(b.genes, a.genes, k, None) or c2
        return Chromosome(c1), Chromosome(c2)

    assert problem is not None, "CbC crossover needs the problem"
    for _ in range(cfg.retry_budget):
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

def _evaluate(problem: GaProblem, population, cache: dict):
    """Fitness for each individual, evaluated serially in population
    order; cache keyed by genes. Returns the fitnesses and the number of
    new evaluations."""
    todo = list(dict.fromkeys(
        c.genes for c in population if c.genes not in cache))
    cache.update((genes, problem.fitness_of(genes)) for genes in todo)
    return [cache[c.genes] for c in population], len(todo)


def _generation_stats(gen: int, fitnesses) -> dict:
    finite = sorted(f.mse for f in fitnesses if f.is_finite)
    best = min(fitnesses)
    return {
        "gen": gen,
        "best_mse": best.mse,
        "mean_finite_mse": (math.fsum(finite) / len(finite)) if finite else None,
        "simulatable_fraction": len(finite) / len(fitnesses),
    }


def run_ga(mode: str, problem: GaProblem, cfg: GaConfig, rng=None,
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
    if len(reference.times) != len(problem.input_trace.times):
        raise MalformedTrace(f"reference trace has {len(reference.times)} rows, "
                             f"input trace {len(problem.input_trace.times)}")
    if rng is None:
        rng = _random.Random(cfg.rng_seed)

    cache: dict = {}
    evaluations = 0
    population = [generate_individual(mode, problem, rng, cfg)
                  for _ in range(cfg.population_size)]
    stats = []
    best_c = None
    best_f = None

    def tournament(fitnesses):
        picks = rng.sample(range(len(population)), min(cfg.tournament_size,
                                                       len(population)))
        winner = min(picks, key=lambda i: (fitnesses[i].sort_key(), i))
        return population[winner]

    for gen in range(cfg.max_generations):
        if gen > 0:
            ranked = sorted(range(len(population)),
                            key=lambda i: (fitnesses[i].sort_key(), i))
            next_pop = [population[i] for i in ranked[:cfg.elitism]]
            while len(next_pop) < cfg.population_size:
                p1 = tournament(fitnesses)
                p2 = tournament(fitnesses)
                if rng.random() < cfg.crossover_rate:
                    c1, c2 = crossover(mode, p1, p2, rng, cfg, problem)
                else:
                    c1, c2 = Chromosome(p1.genes), Chromosome(p2.genes)
                for child in (c1, c2):
                    if rng.random() < cfg.mutation_rate:
                        child = mutate(mode, child, problem, rng, cfg)
                    if len(next_pop) < cfg.population_size:
                        next_pop.append(child)
            population = next_pop

        fitnesses, n_eval = _evaluate(problem, population, cache)
        evaluations += n_eval
        if on_individual is not None:
            for c, f in zip(population, fitnesses):
                on_individual(c, f)
        stats.append(_generation_stats(gen, fitnesses))

        gen_best = min(range(len(population)),
                       key=lambda i: (fitnesses[i].sort_key(), i))
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
