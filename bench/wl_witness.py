"""witness: certificates of actual runs and schema values.

A verdict builds a closed instance (instantiate_alpha, vc_instance or
gamma_instance) and evaluates it.  Instances of true claims must evaluate
True; instances of perturbed outputs must never evaluate True.  The time
goes to coding.split on trace codes of tens of kbits, to building alpha
instances and terms, and to the evaluator on one huge level-0 formula
each; whilelang.run is barely used.
"""

from arithver import alpha, evaluator, whilelang, xrec
from arithver.evaluator import Budget
from arithver.terms import Add, Eq, Lit, One, TrueC, Var, Zero
from arithver.whilelang import Assign, If, Less, NotB, Seq, While

from generators import random_program

from common import STDLIB_ARITY, STDLIB_ORACLES, Op, expect, round_rng

TRACE_ROUNDS = 2
X, Y = Var("x"), Var("y")
COUNT = Seq(Assign(Y, Lit(0)), While(Less(Y, X), Assign(Y, Add(Y, Lit(1)))))
COUNT_FUEL = 10 ** 6
# one counting-loop certificate per rung and round, jittered by +-2 ...
COUNT_LADDER = (10, 25, 40, 85, 100, 115, 130, 145)
# ... and a band of near-equal ones between the rungs, so that p90 falls
# inside one class of similar verdicts instead of in a gap between two
COUNT_BAND, COUNT_BAND_RUNS = 62, 20
COUNT_VCS = 2            # per round: true and perturbed postconditions each
RANDOM_CERTS = 90        # random-program certificates per round ...
RANDOM_PERTURBED = 30    # ... the first of them also with a perturbed output
RANDOM_FUEL = 10 ** 4
# about one generated run in a thousand loops hundreds of times, and its
# certificate then costs seconds (the trace code grows with every loop
# head): rounds would cost what the seed happens to draw, so runs longer
# than this are skipped; the counting-loop ladder covers long runs
RANDOM_MAX_STEPS = 60
GAMMA_BANDS = ((2, 10), (12, 18))  # one certificate per schema and band
GAMMA_PERTURBED = 4


def _term(t, st):
    if isinstance(t, Var):
        return st.get(t, 0)
    if isinstance(t, Lit):
        return t.n
    if isinstance(t, (Zero, One)):
        return int(isinstance(t, One))
    a, b = _term(t.left, st), _term(t.right, st)
    return a + b if isinstance(t, Add) else a * b


def _guard(g, st):
    if isinstance(g, Less):
        return _term(g.left, st) < _term(g.right, st)
    if isinstance(g, NotB):
        return not _guard(g.body, st)
    return (not _guard(g.left, st)) or _guard(g.right, st)


def reference_run(prog, state, fuel):
    """(final state, steps), or None when fuel runs out.

    An independent reading of whilelang's cost model: one unit per
    assignment, per conditional test and per loop-guard test.
    """
    st = dict(state)
    budget = fuel
    todo = [prog]
    while todo:
        p = todo.pop()
        if isinstance(p, Seq):
            todo += [p.second, p.first]
            continue
        if fuel < 1:
            return None
        fuel -= 1
        if isinstance(p, Assign):
            st[p.var] = _term(p.expr, st)
        elif isinstance(p, If):
            todo.append(p.then if _guard(p.guard, st) else p.els)
        elif _guard(p.guard, st):
            todo += [p, p.body]
    return st, budget - fuel


def _is_true(inst, desc):
    """Evaluate a closed instance whose known answer is True."""
    expect(inst is not None, f"{desc}: no instance for a run within fuel")
    r = evaluator.eval_formula(inst, {})
    expect(not r.is_false(), f"{desc}: instance of a true claim is False")
    return r.is_true()


def _is_false(inst, desc):
    """Evaluate a closed instance whose known answer is False."""
    expect(inst is not None, f"{desc}: no instance for a run within fuel")
    r = evaluator.eval_formula(inst, {})
    expect(not r.is_true(), f"{desc}: perturbed output certified True")
    return r.is_false()


def _count_cert(k):
    desc = f"count cert x={k}"
    return Op("count-cert", desc, lambda: _is_true(
        alpha.instantiate_alpha(COUNT, {X: k}, COUNT_FUEL), desc))


def _count_vc(k, post):
    desc = f"count vc x={k} post y={post}"
    triple = alpha.HoareTriple(Eq(X, Lit(k)), COUNT, Eq(Y, Lit(post)))
    check = _is_true if post == k else _is_false
    return Op("count-vc", desc, lambda: check(
        alpha.vc_instance(triple, {X: k}, COUNT_FUEL), desc))


def _random_ops(rng):
    certs, perturbed = [], []
    while len(certs) < RANDOM_CERTS:
        prog = random_program(rng)
        state = {v: rng.randrange(7) for v in whilelang.program_vars(prog)}
        ran = reference_run(prog, state, RANDOM_FUEL)
        if ran is None or ran[1] > RANDOM_MAX_STEPS:
            continue  # certificates of short runs; the ladder has long ones
        final = ran[0]
        desc = f"random cert {prog} at {sorted((v.name, n) for v, n in state.items())}"
        certs.append(Op("random-cert", desc, lambda p=prog, s=state, d=desc: _is_true(
            alpha.instantiate_alpha(p, s, RANDOM_FUEL), d)))
        if len(perturbed) < RANDOM_PERTURBED:
            v = rng.choice(sorted(state, key=lambda v: v.name))
            triple = alpha.HoareTriple(TrueC(), prog,
                                       Eq(v, Lit(final.get(v, 0) + 1)))
            pdesc = f"random perturbed {desc} {v.name}={final.get(v, 0) + 1}"
            perturbed.append(Op("random-perturbed", pdesc,
                                lambda t=triple, s=state, d=pdesc: _is_false(
                                    alpha.vc_instance(t, s, RANDOM_FUEL), d)))
    return certs + perturbed


def _gamma_cert(name, h, args):
    value = STDLIB_ORACLES[name](*args)
    desc = f"gamma {name}{tuple(args)}={value}"
    return Op("gamma-cert", desc, lambda: _is_true(
        xrec.gamma_instance(h, args, value), desc))


def _gamma_perturbed(name, defining, args, bad):
    g, xs, yv = defining
    env = dict(zip(xs, args))
    env[yv] = bad
    # the witness searches multiply out, so only the smallest honest budget
    budget = Budget(q_bound=1 if len(args) == 1 else 0)
    desc = f"gamma perturbed {name}{tuple(args)}={bad}"

    def fn():
        r = evaluator.eval_formula(g, env, budget)
        expect(not r.is_true(), f"{desc}: wrong value certified True")
        return r.is_false()
    return Op("gamma-perturbed", desc, fn)


class Inputs:
    def __init__(self, seed):
        self.seed = seed
        self.schemas = {name: xrec.stdlib(name) for name in STDLIB_ORACLES}
        self.defining = {name: xrec.gamma(h) for name, h in self.schemas.items()}

    def describe(self):
        return [f"count {COUNT}"] + [f"schema {name}: {h}"
                                     for name, h in self.schemas.items()]


def setup(seed):
    return Inputs(seed)


def round_ops(ctx, i):
    rng = round_rng(ctx.seed, i)
    ops = [_count_cert(base + rng.randint(-2, 2)) for base in COUNT_LADDER]
    ops += [_count_cert(COUNT_BAND + rng.randint(-1, 1))
            for _ in range(COUNT_BAND_RUNS)]
    for _ in range(COUNT_VCS):
        k = rng.randint(5, 40)
        ops.append(_count_vc(k, k))
        ops.append(_count_vc(k, k + 1 + rng.randint(0, 3)))
    ops += _random_ops(rng)
    for name, h in ctx.schemas.items():
        for lo, hi in GAMMA_BANDS:
            ops.append(_gamma_cert(name, h, [rng.randint(lo, hi)
                                             for _ in range(STDLIB_ARITY[name])]))
    for _ in range(GAMMA_PERTURBED):
        name = rng.choice(sorted(ctx.schemas))
        args = [rng.randint(0, 12) for _ in range(STDLIB_ARITY[name])]
        bad = STDLIB_ORACLES[name](*args) + 1 + rng.randint(0, 3)
        ops.append(_gamma_perturbed(name, ctx.defining[name], args, bad))
    rng.shuffle(ops)
    return ops
