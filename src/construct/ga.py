"""Genetic search over symbol-to-variable assignments.

Two operator suites share one evolution loop:

  * correct-by-testing (CbT): the baseline. Operators only keep genes
    injective at initialization; crossover may create duplicate genes,
    and nothing stops type or balance violations. Broken candidates are
    discovered when the simulator rejects them.

  * correct-by-construction (CbC): generation, mutation, and crossover
    only emit assignments that meet the constraints, checked gene by
    gene against per-problem tables (GaProblem.fits), which is exactly
    passing the constraint validator and causalizing (all three agree
    with check.binding_faults), so every individual in every generation
    simulates. Any two slot domains are nested or disjoint
    (check.domain_fault), so generation fills the slots in one greedy
    pass that never undoes a choice (_construct_constrained).

Every equation is solved for the slot the code writes (constraint C5),
so a problem has one causal plan (check.Structure), built with the
problem, and one sim.KernelCache, built from that Structure with the
problem, which compiles its kernel at the first score or simulation; a
chromosome only binds variables to the plan's slots, each slot drawing
from its domain (check.domain_fault). A state slot that the container's
init function sets to a constant holds only a variable that starts
there, a variable without a start counting as starting at 0.0
(constraint C6, check.start_of); stores to other slots are ignored.
Fitness is evaluated serially. Each problem checks a distinct chromosome
once and keeps the verdict for its life: a CbC operator checks its
genes (GaProblem.fits), and any other chromosome, CbT's or a caller's,
is bound at slot level and causalized (GaProblem.constructible), so a
CbC search never binds or causalizes. A problem checks its traces once
for every way of scoring, a search's, a signature's or a direct
caller's (GaProblem.scoring, which raises every trace fault scoring can
meet), and only then builds the tables that scoring reads. Scoring
reads the genes alone: per-variable tables give what each data slot
reads, what each state starts at and where each output sits, as a
sim.Feed for sim.simulate and as the signature (GaProblem.signature). A
run simulates once per distinct signature: a distinct chromosome that
hands the kernel the same data as an earlier one of the run, such as
swapped algebraic locals or equal parameter values, takes its fitness.
A mapping from outside a search runs through the same kernel, its Feed
read from its genes (GaProblem.simulate_outputs).
A tournament and a swap draw their two indices with the randrange draws
that random.sample(range(n), 2) makes (_pair), so a seed gives the pairs
sample gives; a generation's best comes from its selection ranks.
Chromosome position i names the variable assigned to symbol slot i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from construct import check, sim
from construct.check import classify_variables, infer_symbol_types
from construct.container import ContainerModel, MalformedTrace, Trace, VariableTable, read_text
from construct.cparse import CodeUnit, ParseError, parse_c_unit
from construct.errors import ConstructError
from construct.isolate import isolate_step_function, load_rule_config, normalize_primitives
# apply_assignment is unused here, but
# bench/test_bench.py::test_tracer_restores_every_wrapped_function reads it
from construct.model import BoundModel, apply_assignment
from construct.translate import EquationModel, eliminate_temporaries, translate_to_equations

EARLY_STOP_MSE = 1e-12
CROSSOVER_RATE = 0.9  # chance that a pair of parents is crossed
MUTATION_RATE = 0.1  # chance that a child is mutated
ELITISM = 2  # best individuals copied into each next generation
RETRY_BUDGET = 100  # CbC attempts per generated, mutated or crossed chromosome
# random.sample's pool bound for up to five picks: at or below it, sample
# draws a pick from the items not yet picked, above it redraws repeats
_SAMPLE_POOL_MAX = 21


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
    if num_variables < 0:
        raise GaError(f"negative variable count {num_variables}")
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
    rng_seed: int = 0
    early_stop: bool = True

    def __post_init__(self):
        if self.population_size <= ELITISM:
            raise ValueError(f"population_size must be > {ELITISM}, the elitism")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass(frozen=True)
class GaResult:
    best: tuple  # (Chromosome, Fitness)
    per_generation: tuple  # of stat dicts
    evaluations: int


# ---------------------------------------------------------------------------
# Problem bundle
# ---------------------------------------------------------------------------

class GaProblem:
    """Everything the operators need, with the slot-domain tables
    (compat, domains) and the variable types precomputed, the holders of
    each variable from the first CbC construction, whether each genome
    checked so far causalizes, the kernel cache of its Structure, and,
    once its traces pass every check, the tables that scoring reads
    (scoring)."""

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
        self.vtypes = tuple(v.vtype for v in vars.variables)  # by gene value
        self.names = tuple(v.name for v in vars.variables)  # by gene value
        self.state_slots = tuple(s for s, _ in self.structure.states)
        self.outputs = tuple(sorted(self.classification.outputs))  # in name order
        self.output_genes = tuple(map(vars.index.__getitem__, self.outputs))  # their gene values
        self.kernels = sim.KernelCache(self.structure)  # compiled at the first simulation
        self._causal: dict = {}  # genes -> whether the genome causalizes

    @property
    def num_slots(self) -> int:
        return self.model.num_slots

    @property
    def num_variables(self) -> int:
        return len(self.vars.variables)

    @cached_property
    def holders(self) -> tuple:
        """Per variable, the slots whose domain holds it, ascending; built
        at the first CbC construction."""
        holders = [[] for _ in self.vars.variables]
        for s, domain in enumerate(self.compat):
            for i in domain:
                holders[i].append(s)
        return tuple(map(tuple, holders))

    def validate(self, genes) -> check.ValidationReport:
        return check.validate_assignment(self.model, self.vars, genes, self.structure)

    def bind(self, genes) -> BoundModel:
        """The slot-level bound model: no equation is rewritten to names."""
        names = check.bound_names(self.model, genes, self.vars)
        return BoundModel(self.model.equations, self.vars, names, self.structure)

    def fits(self, genes) -> bool:
        """Whether check.binding_faults yields nothing for the genome, read
        from the problem's tables: the equations have a causal order
        (Structure.error), no gene repeats (C0), each gene lies in its
        slot's domain (C1, C5, C6), every input and output is present (C4),
        and the variables of each untyped group share one type, which is
        not Boolean where the group is ordering-compared (C1). The verdict
        goes into the memo that constructible reads, so a genome the CbC
        operators checked is never bound or causalized."""
        genes = tuple(genes)
        fits = self._causal.get(genes)
        if fits is None:
            present, vtypes = set(genes), self.vtypes
            fits = (self.structure.error is None and len(present) == len(genes)
                    and all(map(frozenset.__contains__, self.domains, genes))
                    and all(map(present.__contains__, self.io_indices))
                    and all(len(types := {vtypes[genes[s]] for s in members}) == 1
                            and not (ordered and "Boolean" in types)
                            for members, ordered in self.structure.untyped))
            self._causal[genes] = fits
        return fits

    def constructible(self, genes) -> bool:
        """Statically causalizable at slot level, which is exactly
        validate(genes).valid and fits(genes): causalize raises the first
        fault of the same check.binding_faults that validation reports in
        full. This is the gate for genomes that no operator checked, CbT's
        (the simulator discovers their faults) and a direct caller's: each
        is bound and causalized on its first check only."""
        genes = tuple(genes)
        causal = self._causal.get(genes)
        if causal is None:
            try:
                sim.causalize(self.bind(genes))
                causal = True
            except check.CausalizeError:
                causal = False
            self._causal[genes] = causal
        return causal

    @cached_property
    def starts(self) -> tuple:
        """Each variable's start as a kernel reads it, by gene value: a
        parameter's value, or where it starts on a state slot, 0.0 when
        it has none (check.start_of, which C6 reads too)."""
        return tuple(map(check.start_of, self.vars.variables))

    def _reads(self, columns: dict) -> tuple:
        """What a data slot holding each variable reads, by gene value:
        an input's column in columns, by name, or an endless repeat of
        its start, a parameter's value."""
        return tuple(columns[name] if name in columns else repeat(start)
                     for name, start in zip(self.names, self.starts))

    @cached_property
    def scoring(self) -> tuple:
        """The three tables that scoring reads, built once the traces pass
        every check that scoring can meet, which raise in this order:
        NoReferenceTrace for a missing trace; GaError for no output;
        MalformedTrace for the first output, in table order, that the
        reference lacks; MissingInput for the first input the input trace
        lacks (every genome that causalizes reads every input, C4);
        MalformedTrace for a row-count mismatch; NonUniformGrid; and
        MalformedTrace for a reference time that differs from its input
        time. The tables: by gene value, what a data slot holding the
        variable reads (_reads, over the input columns as tuples made here
        once, which the kernel zips without boxing a value) and its
        signature key (the repr of an input's name or of its start, so
        that an input never meets a value, nor -0.0 meets 0.0); and the
        reference column of each output, in name order, as a tuple."""
        inputs, reference = self.input_trace, self.reference_trace
        if inputs is None or reference is None:
            raise NoReferenceTrace("the container provides no input/reference traces")
        if not self.outputs:
            raise GaError("the container has no output variable to score")
        for name in self.classification.outputs:
            if name not in reference.columns:
                raise MalformedTrace(f"reference trace lacks output column {name!r}")
        names = self.classification.inputs
        columns = dict(zip(names, map(tuple, sim.input_columns(inputs, names))))
        times = inputs.times
        if len(reference.times) != len(times):
            raise MalformedTrace(f"reference trace has {len(reference.times)} rows, "
                                 f"input trace {len(times)}")
        h = self.kernels.step(times)  # NonUniformGrid
        for t, r in zip(times, reference.times):
            if abs(r - t) > sim.GRID_RTOL * abs(h):
                raise MalformedTrace(f"reference time {r!r} differs from input time {t!r}")
        return (self._reads(columns),
                tuple(repr(name) if name in columns else repr(start)
                      for name, start in zip(self.names, self.starts)),
                tuple(tuple(reference.columns[name]) for name in self.outputs))

    def _feed(self, reads: tuple, genes) -> sim.Feed:
        """The genome's sim.Feed, its data slots read from reads (_reads)."""
        return sim.Feed(_pick(reads, genes, self.structure.reads),
                        _pick(self.starts, genes, self.state_slots),
                        _pick(self.names, genes, self.kernels.solved))

    def signature(self, genes):
        """What scoring the genome simulates, or None when it does not
        causalize: the key of the variable on each data slot and state
        slot, and the slot of each output. Genomes with equal signatures
        have equal fitness. The traces are checked first (scoring)."""
        keys = self.scoring[1]
        if not self.constructible(genes):
            return None
        return (_pick(keys, genes, self.structure.reads + self.state_slots)
                + tuple(map(genes.index, self.output_genes)))

    def fitness_of(self, genes) -> sim.Fitness:
        """The genome's fitness, sim.score of its sim.Feed, read from the
        tables of scoring, which checks the traces first, against the
        reference columns there, through the problem's kernel cache;
        INVALID when it does not causalize."""
        reads, _, references = self.scoring
        feed = self._feed(reads, genes) if self.constructible(genes) else None
        return sim.score(feed, self.input_trace, self.outputs, references, self.kernels)

    def simulate_outputs(self, genes, inputs: Trace) -> Trace:
        """The output variables of the genome simulated over the input
        trace through the problem's kernel cache, as a search scores it;
        errors raise. The genome is bound at slot level and causalized,
        which raises its first binding fault, and its sim.Feed is read
        from its genes: each data slot holding an input zips the trace's
        own packed array('d') column (sim.input_columns, in name order),
        one boxing pass per run."""
        genes = check.genes_of(self.model, genes, self.vars)
        sim.causalize(self.bind(genes))
        names = sorted(self.classification.inputs)
        columns = dict(zip(names, sim.input_columns(inputs, names)))
        return sim.simulate(self._feed(self._reads(columns), genes), inputs,
                            self.classification.outputs, self.kernels)


def _pick(table: tuple, genes, slots: tuple) -> tuple:
    """The entry of table for the gene at each of slots."""
    return tuple([table[genes[s]] for s in slots])


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

def _construct_constrained(problem: GaProblem, rng):
    """One constraint-guided construction attempt.

    Inputs and outputs are seated first (C4), each on a free slot of its
    holders (GaProblem.holders); then, while slots are free, the one
    with the fewest unused variables in its domain (GaProblem.compat),
    ties to the lowest, takes the first of them after a shuffle. So
    unknown variables land exactly on the slots the code writes, which
    settles C2, C3 and C5 structurally. No choice is ever undone: any
    two domains are nested or disjoint (check.domain_fault), so when a
    completion puts the drawn variable v on another slot t, t's unused
    domain holds the chosen slot's, and swapping v with the chosen
    slot's variable gives a completion that agrees with the choice; a
    slot left with no option therefore means no completion existed. The
    problem's tables are read, never rebuilt: a slot's count of unused
    variables starts at its domain's size. Returns a gene list or None
    on a dead end.
    """
    assignment: list = [None] * problem.num_slots
    used: set = set()
    left = list(map(len, problem.compat))  # per slot, the unused variables of its domain

    def seat(var, slot: int) -> None:
        assignment[slot] = var
        used.add(var)
        for s in problem.holders[var]:
            left[s] -= 1

    # seat every input and output first (C4)
    io = list(problem.io_indices)
    rng.shuffle(io)
    for var in io:
        options = [s for s in problem.holders[var] if assignment[s] is None]
        if not options:
            return None
        seat(var, rng.choice(options))

    free = [s for s, var in enumerate(assignment) if var is None]  # ascending
    while free:
        slot = min(free, key=left.__getitem__)  # ties to the lowest slot
        opts = [v for v in problem.compat[slot] if v not in used]
        if not opts:
            return None
        rng.shuffle(opts)
        free.remove(slot)
        seat(opts[0], slot)
    return assignment


def generate_individual(mode: str, problem: GaProblem, rng) -> Chromosome:
    """Draw one chromosome.

    CbT: a uniform random injective assignment, nothing else enforced.
    CbC: constraint-guided construction (_construct_constrained), one
    greedy pass that never undoes a choice, as the slot domains are
    nested or disjoint; the result is accepted only when it fits
    (GaProblem.fits), and each attempt is one pass, so RETRY_BUDGET
    attempts make at most RETRY_BUDGET * (num_slots + 1) shuffles.
    Equations without a causal order (check.Structure.error) admit no
    chromosome.
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
        genes = _construct_constrained(problem, rng)
        if genes is None:
            last_failure = "construction dead end"
            continue
        if not problem.fits(genes):
            last_failure = "candidate does not causalize"
            continue
        return Chromosome(tuple(genes))
    raise ConstraintsUnsatisfiable(last_failure)


# ---------------------------------------------------------------------------
# Mutation and crossover
# ---------------------------------------------------------------------------

def _pair(rng, n: int) -> tuple:
    """The two distinct indices below n that rng.sample(range(n), 2)
    returns, from the same rng.randrange draws, so rng ends in the same
    state. Up to _SAMPLE_POOL_MAX, sample draws the second from the n - 1
    indices left, the last standing in for the first pick; above it,
    sample redraws the second until it differs from the first."""
    i = rng.randrange(n)
    if n <= _SAMPLE_POOL_MAX:
        j = rng.randrange(n - 1)
        return i, n - 1 if j == i else j
    j = rng.randrange(n)
    while j == i:
        j = rng.randrange(n)
    return i, j


def mutate(mode: str, c: Chromosome, problem: GaProblem, rng) -> Chromosome:
    """Swap two genes, drawn as a _pair. CbC additionally requires the
    swapped slots to be type-compatible both ways and the result to fit
    (GaProblem.fits); when no acceptable swap is found the chromosome is
    returned unchanged."""
    genes = list(c.genes)
    n = len(genes)
    if n < 2:
        return c
    if mode == "cbt":
        i, j = _pair(rng, n)
        genes[i], genes[j] = genes[j], genes[i]
        return Chromosome(tuple(genes))

    for _ in range(RETRY_BUDGET):
        i, j = _pair(rng, n)
        if genes[j] not in problem.domains[i] or genes[i] not in problem.domains[j]:
            continue
        genes[i], genes[j] = genes[j], genes[i]
        if problem.fits(genes):
            return Chromosome(tuple(genes))
        genes[i], genes[j] = genes[j], genes[i]
    return c


def _pmx_child(head_parent, tail_parent, k: int, problem: GaProblem):
    """Single-point child with PMX-style duplicate repair.

    Head genes that collide with the inherited tail are replaced by
    chasing the positional mapping between the parents' tails, within
    each slot's domain; returns None when repair is impossible, or when
    the child lost an input or an output, which would break C4, so that
    it is rejected before GaProblem.fits checks it.
    """
    head = head_parent[:k]
    tail = tail_parent[k:]
    tail_set = set(tail)
    if not tail_set.isdisjoint(head):  # a collision: repair the head
        head = list(head)
        mapping = dict(zip(tail, head_parent[k:]))
        for pos, g in enumerate(head):
            if g not in tail_set:
                continue
            seen = set()
            while g in tail_set:
                if g in seen:
                    return None  # mapping cycle, cannot repair
                seen.add(g)
                g = mapping[g]
            if g not in problem.domains[pos]:
                return None
            head[pos] = g
        head = tuple(head)
    child = head + tail
    return child if all(map(child.__contains__, problem.io_indices)) else None


def crossover(mode: str, a: Chromosome, b: Chromosome, rng,
              problem: GaProblem | None = None) -> tuple:
    """Single-point crossover.

    CbT children may carry duplicate genes, left for the validator and
    simulator to reject. CbC children are PMX-repaired within type groups
    and must fit (GaProblem.fits); when no crossing point works the parents
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
        if c1 is None:
            continue
        c2 = _pmx_child(b.genes, a.genes, k, problem)
        if c2 is None:
            continue
        if problem.fits(c1) and problem.fits(c2):
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


def _generation_stats(gen: int, fitnesses, best: sim.Fitness) -> dict:
    """The generation's report entry. best is its first least fitness,
    which run_ga reads from its ranks; the finite MSEs are averaged in
    population order, as math.fsum rounds their sum once in any order."""
    finite = [f.mse for f in fitnesses if f.is_finite]
    return {
        "gen": gen,
        "best_mse": best.mse,
        "mean_finite_mse": _mean(finite) if finite else None,
        "simulatable_fraction": len(finite) / len(fitnesses),
    }


def run_ga(mode: str, problem: GaProblem, cfg: GaConfig,
           on_individual=None) -> GaResult:
    """Generational GA with tournament selection and elitism.

    A tournament draws two individuals as a _pair, the draws of
    random.sample(range(n), 2), and takes the better of their ranks,
    (sort key, index) pairs; the least rank is the generation's best.

    Deterministic for a fixed seed: the loop owns the RNG and fitness
    evaluation is pure. Before the first draw, only the mode is checked
    and the problem's traces (GaProblem.scoring). on_individual, when
    given, is called with every evaluated (chromosome, fitness) pair,
    elites included.
    """
    import random as _random

    if mode not in ("cbc", "cbt"):
        raise GaError(f"unknown mode {mode!r}")
    problem.scoring  # raises every trace fault that scoring can meet
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
        i, j = _pair(rng, len(population))
        return population[min(ranks[i], ranks[j])[1]]

    for gen in range(cfg.max_generations):
        if gen > 0:
            next_pop = [population[i] for _, i in sorted(ranks)[:ELITISM]]
            while len(next_pop) < cfg.population_size:
                p1 = tournament(ranks)
                p2 = tournament(ranks)
                if rng.random() < CROSSOVER_RATE:
                    c1, c2 = crossover(mode, p1, p2, rng, problem)
                else:
                    c1, c2 = Chromosome(p1.genes), Chromosome(p2.genes)
                for child in (c1, c2):
                    if rng.random() < MUTATION_RATE:
                        child = mutate(mode, child, problem, rng)
                    if len(next_pop) < cfg.population_size:
                        next_pop.append(child)
            population = next_pop

        fitnesses, n_eval = _evaluate(problem, population, cache, scored)
        evaluations += n_eval
        if on_individual is not None:
            for c, f in zip(population, fitnesses):
                on_individual(c, f)
        ranks = [(f.sort_key(), i) for i, f in enumerate(fitnesses)]  # the selection order
        gen_best = min(ranks)[1]
        stats.append(_generation_stats(gen, fitnesses, fitnesses[gen_best]))
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
