"""Discrete-time LTI simulation and noisy multi-experiment dataset generation.

All randomness flows from a single root generator. Anything that touches
several experiments takes one child stream per experiment index, stream i
drawing bitwise what the root's spawn would give as child i (see
_record_draws). generate_dataset takes its Nt streams first, so a
noiseless record i depends only on the root seed and i. add_noise takes its
streams from the same root afterwards, so the noise on record i also
depends on how many streams were taken before it, that is on the ensemble
size: the first k records of a noisy ensemble are not the noisy k-record
ensemble. A root on numpy's default PCG64 and SeedSequence has its child
streams derived from its own pool, one vectorized pass a block of
BLOCK_SIZE children, and one reused generator, reseeded for each record,
makes the caller's list of draws: one call per role, each writing
standard draws into the record's preallocated row (uniforms for its
initial state, normals for its input, then each channel's noise). Any
other root spawns its children. The scale and shift that numpy's
uniform, normal and exponential would apply to each draw run afterwards
once over the records of the call, so every value is bitwise numpy's
own. A stream is therefore a numpy Generator, or an object whose random,
standard_normal and standard_exponential methods take a Generator's size
and out arguments.

Since record i draws only from child i, records [a, b) of a seed's
Nt-record ensemble can be made on their own: generate_dataset of b - a
records, on a root whose SeedSequence(seed) has counted a children, gives
the clean records bitwise, and add_noise on one that has counted Nt + a
gives their noise. Simulation is bitwise the same at every ensemble size
too, so the CLI's generate makes its files one block of BLOCK_SIZE
records at a time and never holds the ensemble.

Dataset files are written and read one block at a time, by one writer
(_write_datasets, one %-template a record, see _record_format), which
asks its caller's block(a, b) for records [a, b), and one reader
(_DatasetReader, one record parser, see _parse_records), which hands its
caller block k as block(k, ds) as soon as it is parsed. Text I/O,
which is bound by float formatting and parsing, runs in forked processes
on a machine with more than one CPU when a file is big enough to repay the
fork (see _processes). Writing and reading cut a file the same way, into
parts of whole blocks (see _in_parts).
"""

import contextlib
import json
import math
import os
import signal
import stat
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import _coerce_to_uint32_array  # private; _record_draws checks its use

from .hankel import pe_order_check

__all__ = [
    "StateSpace",
    "Dataset",
    "NoiseSpec",
    "NOISE_FAMILIES",
    "X0_POLICIES",
    "simulate",
    "generate_pe_input",
    "add_noise",
    "generate_dataset",
    "random_system",
    "save_dataset",
    "load_dataset",
]

NOISE_FAMILIES = ("gaussian", "uniform", "shifted-exponential")
X0_POLICIES = ("zero", "random-bounded")

BLOCK_SIZE = 512  # records per block in the excitation check, dataset I/O and aggregation
MAX_TRIES = 10  # input draws per record before the excitation check gives up
FORK_MIN_VALUES = 22_500  # floats a forked text I/O part must format or parse to repay starting it
FORMAT_VALUES = 8192  # samples one %-operation of the dataset writer formats at most: a slice of a block


@dataclass(frozen=True)
class StateSpace:
    """x_{k+1} = A x_k + B u_k,  y_k = C x_k + D u_k."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.isfinite(M).all():
                raise ValueError(f"{name} has entries that are not finite")
            object.__setattr__(self, name, M)
        n, m, p = self.A.shape[0], self.B.shape[1], self.C.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {self.B.shape}")
        if self.C.shape != (p, n):
            raise ValueError(f"C must be {p}x{n}, got {self.C.shape}")
        if self.D.shape != (p, m):
            raise ValueError(f"D must be {p}x{m}, got {self.D.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass(frozen=True)
class Dataset:
    """Nt records sharing N, m and p: inputs U (Nt, N, m), outputs Y (Nt, N, p).

    A slice gives a smaller Dataset over the same arrays; record i is
    U[i] and Y[i]. Every sample must be finite.
    """

    U: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if U.ndim != 3 or Y.ndim != 3 or U.shape[:2] != Y.shape[:2]:
            raise ValueError(f"U and Y must be (Nt, N, m) and (Nt, N, p), got shapes {U.shape} and {Y.shape}")
        if U.shape[0] < 1:
            raise ValueError("dataset needs at least one experiment")
        bad = _nonfinite(U, Y)
        if bad.any():
            raise ValueError(f"record {int(np.argmax(bad))} has non-finite samples")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)

    def __getitem__(self, key: slice) -> "Dataset":
        if not isinstance(key, slice):
            raise TypeError(f"a Dataset takes a slice, not {type(key).__name__}; record i is U[i] and Y[i]")
        return Dataset(self.U[key], self.Y[key])

    @property
    def Nt(self) -> int:
        return self.U.shape[0]

    @property
    def N(self) -> int:
        return self.U.shape[1]

    @property
    def m(self) -> int:
        return self.U.shape[2]

    @property
    def p(self) -> int:
        return self.Y.shape[2]


def _nonfinite(U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Which records of U (Nt, N, m) and Y (Nt, N, p) hold a sample that is
    not finite, checked a block of BLOCK_SIZE records at a time."""
    bad = np.empty(U.shape[0], dtype=bool)
    for a in range(0, U.shape[0], BLOCK_SIZE):
        rows = slice(a, a + BLOCK_SIZE)
        bad[rows] = ~(np.isfinite(U[rows]).all(axis=(1, 2)) & np.isfinite(Y[rows]).all(axis=(1, 2)))
    return bad


def _uniform_span(m1: float, var: float) -> tuple:
    """Low end and width of the uniform law with mean m1 and variance var:
    the half-width w solves (2w)^2 / 12 = var, and numpy's uniform(low,
    high) is low + (high - low)*u."""
    w = math.sqrt(3.0 * var)
    return m1 - w, (m1 + w) - (m1 - w)


# family -> (standard draw, (loc, scale) from m1 and the variance): a draw is
# loc + scale*z for z the Generator method's standard draws, bitwise numpy's
# own normal, uniform and exponential (shifted by m1 - s; a shifted
# exponential with scale s has mean shift + s and variance s^2)
_NOISE_DRAWS = {
    "gaussian": ("standard_normal", lambda m1, var: (m1, math.sqrt(var))),
    "uniform": ("random", _uniform_span),
    "shifted-exponential": ("standard_exponential", lambda m1, var: (m1 - math.sqrt(var), math.sqrt(var))),
}


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. scalar noise family pinned down by its first two raw moments.

    m1 and m2 are raw moments, so the variance is m2 - m1**2. A zero-variance
    spec is allowed and means a deterministic offset of m1. All families have
    finite moments of every order. Moments that are not finite, and a
    uniform spec whose endpoints lie too far apart for their difference to
    be a double, raise ValueError naming the moment.
    """

    family: str
    m1: float
    m2: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}, expected one of {NOISE_FAMILIES}")
        for name in ("m1", "m2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"noise moment {name}={getattr(self, name)} is not finite")
        try:
            negative = self.m2 < self.m1 ** 2
        except OverflowError:  # m1**2 is past every finite m2
            negative = True
        if negative:
            raise ValueError(f"m2={self.m2} implies negative variance for m1={self.m1}")
        if not math.isfinite(self.standard_form[2]):
            raise ValueError(f"m2={self.m2} puts the {self.family} endpoints too far apart: their difference overflows")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 ** 2

    @property
    def standard_form(self) -> tuple:
        """(standard draw, loc, scale): a draw is loc + scale*z for z the
        standard draws of the Generator method so named. A zero-variance
        spec draws nothing: (None, m1, 0.0)."""
        var = self.variance
        if var == 0.0:
            return None, self.m1, 0.0
        method, affine = _NOISE_DRAWS[self.family]
        return (method, *affine(self.m1, var))

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        method, loc, scale = self.standard_form
        if method is None:
            return np.full(shape, loc)
        return loc + scale * getattr(rng, method)(shape)


def _simulate_batch(ss: StateSpace, X0: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Outputs (B, N, p) of the exact state recursion, from states X0 (B, n)
    and inputs U (B, N, m), one time step at a time over the whole batch."""
    Y = np.empty(U.shape[:2] + (ss.p,))
    At, Bt, Ct, Dt = ss.A.T, ss.B.T, ss.C.T, ss.D.T
    X = X0
    for k in range(U.shape[1]):
        uk = U[:, k]
        Y[:, k] = X @ Ct + uk @ Dt
        X = X @ At + uk @ Bt
    return Y


def simulate(ss: StateSpace, x0, U) -> np.ndarray:
    """Run the exact state recursion over an input sequence U (N, m).

    Returns the outputs Y (N, p) with y_k = C x_k + D u_k and
    x_{k+1} = A x_k + B u_k.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    if U.ndim != 2 or U.shape[1] != ss.m:
        raise ValueError(f"U must be Nx{ss.m}, got shape {U.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (ss.n,):
        raise ValueError(f"x0 must have {ss.n} entries, got shape {np.shape(x0)}")
    return _simulate_batch(ss, x[None], U[None])[0]


def generate_pe_input(N: int, m: int, order: int, rng: np.random.Generator, max_tries: int = MAX_TRIES) -> np.ndarray:
    """Draw an N x m input whose depth-`order` Hankel matrix has full row rank.

    Entries are i.i.d. standard normal, which is exciting with probability
    one; the rank is still verified and the draw retried a bounded number of
    times rather than assumed.
    """
    need = (m + 1) * order - 1  # below this, the Hankel matrix is too narrow for rank m*order
    if N < need:
        raise ValueError(f"N={N} cannot excite order {order} with m={m} inputs; need N >= {need}")
    for _ in range(max_tries):
        U = rng.standard_normal((N, m))
        if pe_order_check(U, order):
            return U
    raise RuntimeError(f"no exciting input of order {order} found in {max_tries} draws")


def add_noise(ds: Dataset, spec_u: NoiseSpec, spec_y: NoiseSpec, rng: np.random.Generator) -> Dataset:
    """Perturb every input and output sample by an independent draw.

    Each experiment gets its own child stream (see _record_draws), and
    within a stream the input block is drawn before the output block, so
    corruption is reproducible and independent across time, channels,
    experiments and the two signals.

    A record's standard draws (see NoiseSpec.standard_form) go straight into
    its row of the output: one call per channel, none for a zero-variance
    channel. Then each channel is scaled, shifted and added to the clean
    samples over the whole ensemble, one IEEE operation a step, so every
    sample is bitwise clean + (loc + scale*z). U and Y are views of one
    (Nt, N*(m + p)) array.
    """
    Nt, N = ds.Nt, ds.N
    Z = np.empty((Nt, N * (ds.m + ds.p)))
    channels = list(zip((Z[:, : N * ds.m], Z[:, N * ds.m :]), (spec_u.standard_form, spec_y.standard_form), (ds.U, ds.Y)))
    _record_draws(rng, Nt, [(draw, rows) for rows, (draw, _, _), _ in channels if draw is not None])
    noisy = []
    for rows, (draw, loc, scale), clean in channels:
        # in place on the 2-D rows: numpy copied their 3-D view whole for each in-place operation
        if draw is None:
            rows[...] = loc
        else:
            rows *= scale
            rows += loc
        rows += clean.reshape(Nt, -1)
        noisy.append(rows.reshape(clean.shape))  # a view: each record's channel is contiguous
    return Dataset(*noisy)


def generate_dataset(
    ss: StateSpace,
    Nt: int,
    N: int,
    L: int,
    x0_policy: str,
    rng: np.random.Generator,
    x0_halfwidth: float = 1.0,
) -> Dataset:
    """Generate Nt independent noiseless experiments of length N.

    Every input is verified persistently exciting of order L + n. Initial
    states are zero or drawn uniformly from a hypercube of the given
    half-width, per policy. Record i draws its initial state, then its
    input, from child stream i (see _record_draws); an input that fails the
    excitation check is redrawn from the same stream, up to MAX_TRIES draws
    in all.
    """
    order, bounds = _generation_plan(ss, Nt, N, L, x0_policy, x0_halfwidth)
    X0 = np.zeros((Nt, ss.n))
    U = np.empty((Nt, N, ss.m))
    again = _record_draws(rng, Nt, ([("random", X0)] if bounds is not None else []) + [("standard_normal", U)])
    for a in range(0, Nt, BLOCK_SIZE):
        for i in a + np.flatnonzero(~pe_order_check(U[a : a + BLOCK_SIZE], order)):
            try:
                U[i] = generate_pe_input(N, ss.m, order, again(i), MAX_TRIES - 1)
            except RuntimeError:
                raise RuntimeError(f"record {i}: no exciting input of order {order} found in {MAX_TRIES} draws") from None
    if bounds is not None:
        # after any replay, which draws the standard uniforms again: numpy's
        # uniform(lo, hi) is lo + (hi - lo)*u
        lo, hi = bounds
        X0 *= hi - lo
        X0 += lo
    if Nt == 1:
        # a one-row batch takes numpy's matrix-vector product, which rounds
        # differently from the matrix-matrix product of larger batches;
        # simulating the record twice keeps it the same at every ensemble size
        return Dataset(U, _simulate_batch(ss, np.repeat(X0, 2, axis=0), np.repeat(U, 2, axis=0))[:1])
    return Dataset(U, _simulate_batch(ss, X0, U))


def _generation_plan(ss: StateSpace, Nt: int, N: int, L: int, x0_policy: str, x0_halfwidth: float) -> tuple:
    """generate_dataset's checks of its arguments, which draw nothing: the
    excitation order L + n and the initial-state bounds (lo, hi), None for
    zero states. An argument it cannot take raises ValueError naming it."""
    if Nt < 1:
        raise ValueError("Nt must be >= 1")
    if x0_policy not in X0_POLICIES:
        raise ValueError(f"unknown x0 policy {x0_policy!r}")
    order = L + ss.n
    if N < (ss.m + 1) * order - 1:
        raise ValueError(f"N={N} too short for excitation order L+n={order} with m={ss.m}; need N >= {(ss.m + 1) * order - 1}")
    if x0_policy == "zero":
        return order, None
    lo, hi = -float(x0_halfwidth), float(x0_halfwidth)
    if not 0.0 <= hi - lo < math.inf:
        raise ValueError(f"x0_halfwidth={x0_halfwidth} must be non-negative with 2*x0_halfwidth a finite double")
    return order, (lo, hi)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier; _record_draws checks what it derives from
# them against numpy on every call
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix, in generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # mix
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a 32-bit word, a Python int or a uint32
    array, under the running hash constant; returns the hash and the next
    constant, const*mult."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, Python ints or uint32 arrays."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _pcg64_states(seq, first: int, n: int) -> list:
    """PCG64 states (state, inc), as Python ints, of children first to
    first + n - 1 of the SeedSequence seq: what PCG64(child) sets up.

    Child k's entropy is seq's, padded to the pool size, then its spawn key,
    then k; mixed up to k, that is seq's own pool. So k is mixed in, and the
    seed words generated, for all n children at once as uint32 arrays, with
    the hash constant past seq's P*P hashmixes and P more per word past P.
    """
    P = seq.pool_size
    run, key = (len(_coerce_to_uint32_array(x)) for x in (seq.entropy, seq.spawn_key))
    const = _INIT_A * pow(_MULT_A, P * P + P * (max(run, P) + key - P), 1 << 32) & _M32
    pool, index = seq.pool.tolist(), (first + np.arange(n)).astype(np.uint32)
    for d in range(P):
        h, const = _hashmix(index, const, _MULT_A)
        pool[d] = _mix(pool[d], h)
    # generate_state(4, np.uint64): eight words cycling over the pool, then
    # paired low word first into seed (hi, lo) and increment (hi, lo)
    const, state = _INIT_B, []
    for j in range(8):
        h, const = _hashmix(pool[j % P], const, _MULT_B)
        state.append(h.astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = ((state[2 * j] | state[2 * j + 1] << np.uint64(32)).tolist() for j in range(4))
    # pcg64_set_seed: inc = 2*seq + 1, state = (inc + seed)*MULT + inc
    states = []
    for a, b, c, e in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | e) << 1 | 1) & _M128
        states.append(((inc + (a << 64 | b)) * _PCG64_MULT + inc & _M128, inc))
    return states


def _record_draws(rng, n: int, calls: list):
    """Make the draws of child streams 0..n-1 of the root generator rng:
    stream i draws bitwise what rng.spawn(n)[i] draws, and rng's seed
    sequence counts n more children spawned, as spawn counts them, so the
    next call gets the next n. Returns again(i), stream i where its draws
    left it.

    calls is one list of draws, (Generator method name, rows), that every
    record makes in order on its own stream: stream i runs
    getattr(g, name)(out=rows[i]) for each. When rng is a numpy Generator on
    PCG64 seeded by a numpy SeedSequence, the children's states are derived
    one pass a block of BLOCK_SIZE children (see _pcg64_states), so no more
    than a block's states are held at once, and one Generator, reseeded for
    each record, makes every record's draws, so no per-record SeedSequence,
    PCG64 or Generator is built; again(i) derives child i's state alone,
    reseeds the Generator to it and makes record i's draws again. The first
    and last states are checked against streams numpy builds itself, and a
    mismatch, from a numpy that seeds another way, raises RuntimeError
    before anything is counted or drawn, rather than changing any dataset.
    Any other root (another bit generator, a seed sequence of another kind,
    a duck-typed generator with only a spawn method) is served by
    rng.spawn(n), and again(i) is child i itself.
    """

    def draw(g, i: int):
        for name, rows in calls:
            getattr(g, name)(out=rows[i])
        return g

    bg = getattr(rng, "bit_generator", None)
    seq = getattr(bg, "seed_seq", None)
    first = getattr(seq, "n_children_spawned", 0)
    # a child index past 32 bits would take two words of the key
    if type(bg) is not np.random.PCG64 or type(seq) is not np.random.SeedSequence or first + n > 1 << 32:
        own = rng.spawn(n)
        for i, g in enumerate(own):
            draw(g, i)
        return own.__getitem__
    for i in {0, n - 1}:
        child = np.random.PCG64(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (first + i,), pool_size=seq.pool_size))
        want = child.state["state"]
        if [(want["state"], want["inc"])] != _pcg64_states(seq, first + i, 1):
            raise RuntimeError(
                f"numpy {np.__version__} seeds child stream {first + i} other than hankelnull derives it; "
                "the derived records would differ from rng.spawn's"
            )
    # seq itself counts the children, in place, so a caller that kept it sees them too
    seq.__setstate__(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size, n_children_spawned=first + n).__reduce__()[2])
    g = np.random.Generator(child)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}

    def reseed(pair: tuple) -> None:
        state["state"]["state"], state["state"]["inc"] = pair
        child.state = state

    def again(i: int):
        reseed(_pcg64_states(seq, first + i, 1)[0])
        return draw(g, i)

    for a in range(0, n, BLOCK_SIZE):
        for i, pair in enumerate(_pcg64_states(seq, first + a, min(BLOCK_SIZE, n - a)), a):
            reseed(pair)
            draw(g, i)
    return again


def random_system(n: int, m: int, p: int, rng: np.random.Generator, spectral_radius: float = 0.9) -> StateSpace:
    """Random state-space model with A rescaled to the given spectral radius."""
    A = rng.standard_normal((n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > 0.0:
        A *= spectral_radius / rho
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), rng.standard_normal((p, m)))


def _record_format(N: int, m: int, p: int) -> str:
    """%-format of one JSONL record: its index, then u and y row by row.

    %.17g prints 17 significant digits, which round-trip binary64 exactly.
    """
    def matrix(cols: int) -> str:
        return "[" + ",".join(["[" + ",".join(["%.17g"] * cols) + "]"] * N) + "]"

    return '{"i":%d,"u":' + matrix(m) + ',"y":' + matrix(p) + "}\n"


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset as JSON Lines: a meta header, then one experiment per line.

    The records are written one block at a time, in parts (see
    _write_datasets), one value a sample.
    """
    _write_datasets((path,), ds.Nt, ds.N, ds.m, ds.p, lambda a, b: (ds[a:b],))


def _write_datasets(paths, Nt: int, N: int, m: int, p: int, block) -> None:
    """Write one dataset of Nt records sharing N, m and p to each JSONL
    file of paths, as save_dataset writes one.

    block(a, b) gives records [a, b) of every file, a Dataset a path in
    path order. It is called once a block of BLOCK_SIZE records, in parts
    of whole blocks (see _write_parts), so no more than a block of each
    file is made at once in any part. A block is formatted in slices of
    records, each by one %-operation over its rows, so the text, tuple and
    Python floats of no more than FORMAT_VALUES samples (one record, if a
    record holds more) are made at once.
    """
    record = _record_format(N, m, p)
    header = json.dumps({"meta": {"Nt": Nt, "N": N, "m": m, "p": p}}) + "\n"
    step = max(1, FORMAT_VALUES // (N * (m + p)))

    def blocks(lo: int, hi: int, *fhs) -> None:
        for a in range(lo * BLOCK_SIZE, min(hi * BLOCK_SIZE, Nt), BLOCK_SIZE):
            b = min(a + BLOCK_SIZE, Nt)
            for fh, ds in zip(fhs, block(a, b)):
                for s in range(0, b - a, step):
                    U, Y = ds.U[s : s + step], ds.Y[s : s + step]
                    index = np.arange(a + s, a + s + len(U), dtype=float)[:, None]
                    rows = np.concatenate([index, U.reshape(len(U), -1), Y.reshape(len(U), -1)], axis=1)
                    fh.write(record * len(U) % tuple(rows.ravel().tolist()))

    _write_parts(paths, header, -(-Nt // BLOCK_SIZE), len(paths) * Nt * N * (m + p), blocks)


# ints parse as floats so that a sample written as "-0" keeps its sign
_decode_record = json.JSONDecoder(parse_int=float).decode


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset into arrays sized from its meta header.

    The records are read one block at a time, in parts (see _DatasetReader),
    and copied into the arrays.
    """
    with _DatasetReader(path) as rd:
        # forked parts write straight into the caller's arrays
        U, Y = rd.shared((rd.Nt, rd.N, rd.m)), rd.shared((rd.Nt, rd.N, rd.p))

        def block(k: int, ds: Dataset) -> None:
            a = k * BLOCK_SIZE
            U[a : a + ds.Nt], Y[a : a + ds.Nt] = ds.U, ds.Y

        rd.read(block)
    return Dataset(U, Y)


class _DatasetReader:
    """A dataset file written by save_dataset, open to be read one block of
    BLOCK_SIZE records at a time.

    Opening it reads the meta header into Nt, N, m and p, so that a caller
    can check them, and size its arrays (see shared), before any record is
    read. read(block) then runs block(k, ds) once for each block k in
    range(blocks), as soon as the block is parsed: ds is a Dataset of its
    records, over buffers that the next block reuses. The blocks are read
    in parts of whole blocks (see _in_parts): a regular file in as many
    parts as save_dataset writes it in, any other file, a pipe say, in one
    pass. Each part reads and counts the records before its own, so an
    error names a record by its index in the whole file.
    """

    def __init__(self, path):
        self.path = path
        self.fh = open(path, "rb")
        try:
            header = _json(self.fh.readline(), f"{path}: first line")
            meta = header.get("meta") if isinstance(header, dict) else None
            if not (isinstance(meta, dict) and all(k in meta for k in ("Nt", "N", "m", "p"))):
                raise ValueError(f"{path}: first line needs a meta header object with integer Nt, N, m and p")
            self.Nt, self.N, self.m, self.p = (_positive_int(path, f"meta header's {k}", meta[k]) for k in ("Nt", "N", "m", "p"))
        except BaseException:
            self.fh.close()
            raise
        self.blocks = -(-self.Nt // BLOCK_SIZE)
        # a file that is not regular cannot be opened again from its start, so one part reads it
        regular = stat.S_ISREG(os.fstat(self.fh.fileno()).st_mode)
        self.parts = _processes(self.blocks, self.Nt * self.N * (self.m + self.p)) if regular else 1

    def __enter__(self) -> "_DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def shared(self, shape) -> np.ndarray:
        """An array of the given shape, sized from the meta header, that forked
        parts can write into (see _shared_empty); one that cannot be mapped
        raises, naming the header's counts."""
        return _shared_empty(shape, f"{self.path}: meta header's Nt={self.Nt}, N={self.N}, m={self.m} and p={self.p} do not fit in memory")

    def read(self, block) -> None:
        def run(k: int, lo: int, hi: int) -> None:
            if k == 0:
                return _parse_records(self, self.fh, lo, hi, block)
            with open(self.path, "rb") as own:
                own.readline()
                _parse_records(self, own, lo, hi, block)

        _in_parts(self.blocks, self.parts, run)


def _json(data: bytes, where: str, decode=json.loads):
    """The JSON value that decode parses from UTF-8 bytes; bytes that are not
    UTF-8, or text that is not JSON, raise naming where they came from."""
    try:
        return decode(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{where} is not UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise json.JSONDecodeError(f"{where}: {err.msg}", err.doc, err.pos) from None


def _load_json(path):
    """The JSON value in a whole file; one that is not UTF-8 or not JSON raises naming the file."""
    with open(path, "rb") as fh:
        return _json(fh.read(), str(path))


def _dump_json(obj, path, indent=None) -> None:
    """Write a JSON value to a file, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")


def _positive_int(path, field: str, value) -> int:
    """A JSON count as an int; 4.0 reads as 4. A bool, a string, a number
    that is not integral or one below 1 raises, naming the file and field."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 1:
        raise ValueError(f"{path}: {field} is {value!r}, expected a positive integer")
    return int(value)


def _holds_bool(value) -> bool:
    """Whether a decoded JSON value is, or its nested lists hold, true or
    false, which numpy reads as 1.0 and 0.0 among numbers."""
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _number_array(path, field: str, value) -> np.ndarray:
    """A JSON array of numbers as floats. A ragged array or an entry that is
    not a number (a string, a bool or null, say) raises, naming the file
    and field."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None  # ragged
    if arr is None or arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{path}: {field} is not a rectangular array of numbers")
    return arr.astype(float)


def _parse_records(rd: _DatasetReader, fh, lo: int, hi: int, block) -> None:
    """Read the dataset lines left in fh, skipping blank ones (ASCII
    whitespace only), and parse blocks [lo, hi) of rd's file: record i goes
    into row i % BLOCK_SIZE of one block's buffers, and once block k's
    records are in, this runs block(k, ds), ds a Dataset over those rows;
    the next block overwrites them.

    The records before the part are read and counted but not decoded, so
    an error names a record by its index in the whole file. A part that
    ends before the last record stops at its last block; the last part
    reads to the end of the file. A file that ends before the part's last
    record raises, naming how many records it holds.
    """
    path, Nt, N, m, p = rd.path, rd.Nt, rd.N, rd.m, rd.p
    U, Y = np.empty((min(BLOCK_SIZE, Nt), N, m)), np.empty((min(BLOCK_SIZE, Nt), N, p))
    lo, hi = lo * BLOCK_SIZE, min(hi * BLOCK_SIZE, Nt)
    i = 0
    for line in fh:
        if line.isspace():
            continue
        if i == Nt:
            raise ValueError(f"{path}: more experiment lines than the meta header's Nt={Nt}")
        if i >= lo:
            obj = _json(line, f"{path}: record {i}", _decode_record)
            u = y = None
            try:
                u = np.asarray(obj["u"])
                y = np.asarray(obj["y"])
            except (KeyError, TypeError):
                raise ValueError(f"{path}: record {i} needs u and y sample arrays") from None
            except ValueError:  # numpy's words for a ragged array; the first not converted is at fault
                raise ValueError(f"{path}: record {i} has {'u' if u is None else 'y'} samples that are not a rectangular array") from None
            # every JSON number parses as a float, so any other dtype holds a string, a bool or null;
            # a bool among numbers parses as a float too, but a line of numbers as save_dataset
            # writes them holds no "t" and no "f", so only a line that does is walked for one
            if u.dtype != float or y.dtype != float or ((b"t" in line or b"f" in line) and (_holds_bool(obj["u"]) or _holds_bool(obj["y"]))):
                name = "u" if u.dtype != float or _holds_bool(obj["u"]) else "y"
                raise ValueError(f"{path}: record {i} has {name} samples that are not numbers")
            if u.shape != (N, m) or y.shape != (N, p):
                raise ValueError(f"{path}: record {i} has u {u.shape} and y {y.shape}, meta header says ({N}, {m}) and ({N}, {p})")
            U[i % BLOCK_SIZE], Y[i % BLOCK_SIZE] = u, y
            if (i + 1) % BLOCK_SIZE == 0 or i + 1 == hi:
                n = i % BLOCK_SIZE + 1
                try:
                    ds = Dataset(U[:n], Y[:n])
                except ValueError:  # a non-finite sample, named by its record's index in the file
                    raise ValueError(f"{path}: record {i + 1 - n + int(np.argmax(_nonfinite(U[:n], Y[:n])))} has non-finite samples") from None
                block(i // BLOCK_SIZE, ds)
        i += 1
        if i == hi < Nt:
            break
    if i < hi:
        raise ValueError(f"{path}: {i} experiment lines disagree with the meta header's Nt={Nt}")


def _shared_empty(shape, too_big: str) -> np.ndarray:
    """An uninitialised float array in an anonymous shared mapping, so that
    what a forked child writes into it, this process sees. One that cannot
    be mapped raises ValueError(too_big)."""
    import mmap  # here, so that importing hankelnull does not load it

    try:
        return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    except (MemoryError, OSError, OverflowError, ValueError):  # the last two past the address space
        raise ValueError(too_big) from None


def _cpus() -> int:
    """CPUs this process may run on, or 1 off Linux, where _in_parts does not fork."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _processes(n: int, values: int) -> int:
    """How many parts _in_parts cuts rows [0, n) into when they hold this
    many values in all: one per CPU, but only as many as get FORK_MIN_VALUES
    each, and at most one per row. A row of a dataset job is a block of
    BLOCK_SIZE records; one of a landscape is a grid point. A value is a
    float formatted or parsed: a sample of a dataset file, or the sigma_min
    of a landscape row, whose other fields are formatted in advance. A grid
    search never forks."""
    return max(1, min(n, _cpus(), values // FORK_MIN_VALUES))


def _in_parts(n: int, parts: int, part) -> None:
    """Cut rows [0, n) into parts contiguous ranges, range k being
    [n*k//parts, n*(k+1)//parts), and run part(k, lo, hi) on every range at
    once.

    Part 0 runs in this process, and each other part in a child started
    with os.fork, so one part forks nothing. A child reports only its exit
    status, so a part hands its output over in memory the child shares
    with this process: an array made with _shared_empty, such as the rows
    that a dataset read's block(k, ds) fills by block index k, or a memory
    file (see _write_parts). A part whose child failed is run again here, so
    that its error is raised with its own type and message; if it runs
    without error here, ChildProcessError names the part and how its child
    ended. Failures are raised in part order, and every child has ended
    when this returns.

    fork, not a fresh interpreter: the child starts with the caller's data
    and imports nothing, so a caller script needs no `if __name__ ==
    "__main__":` guard. A child leaves through os._exit, so it never
    returns into the caller's frames or flushes the caller's buffers. A
    lock another thread holds stays locked in a forked child (Python 3.12
    and later warn of it). The parts run here take no Python-level lock.
    Dataset parts simulate, check excitation and aggregate, so a child
    calls BLAS and LAPACK, possibly after this process has started
    OpenBLAS's thread pool. That is safe because OpenBLAS, numpy's BLAS,
    registers a pthread_atfork handler that stops its pool before every
    fork, so a child starts with no BLAS thread and no lock one holds, and
    the first BLAS call on either side of the fork starts the pool afresh.
    """
    cuts = [n * k // parts for k in range(parts + 1)]
    children = {}
    try:
        for k in range(1, parts):
            pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    part(k, cuts[k], cuts[k + 1])
                    ok = True
                finally:
                    os._exit(0 if ok else 1)
            children[k] = pid
        part(0, 0, cuts[1])
        for k in range(1, parts):
            status = os.waitpid(children[k], 0)[1]
            del children[k]
            if status:
                part(k, cuts[k], cuts[k + 1])
                code = os.waitstatus_to_exitcode(status)
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise ChildProcessError(f"part {k} of {parts}: its forked process {how}, but the part runs here without error")
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)  # a failure came first, so its result is no longer wanted
            os.waitpid(pid, 0)


def _write_parts(paths, header: str, n: int, values: int, rows) -> None:
    """Write header and rows [0, n), which hold this many values in all (see
    _processes), to each text file of paths in parts of contiguous rows (see
    _in_parts); rows(lo, hi, *fhs) writes rows [lo, hi) of file j to fhs[j].

    Part 0 writes the headers and its rows straight into the files. Each
    forked part formats its rows into anonymous memory files, one a path,
    and the caller appends the parts in order, each as long as its memory
    file, with os.sendfile, a copy made in the kernel. The bytes are the
    same at any part count. A failure removes every regular file the call
    opened, so no half-written file is left.
    """
    parts, fds, fhs = _processes(n, values), [], []

    def part(k: int, lo: int, hi: int) -> None:
        if k == 0:
            for fh in fhs:
                fh.write(header)
            return rows(lo, hi, *fhs)
        with contextlib.ExitStack() as stack:
            rows(lo, hi, *(stack.enter_context(open(fd, "w", encoding="utf-8", closefd=False)) for fd in fds[k - 1]))

    try:
        for k in range(1, parts):
            fds.append([])
            fds[-1].extend(os.memfd_create(f"part {k}") for _ in paths)
        for path in paths:
            fhs.append(open(path, "w", encoding="utf-8"))
        _in_parts(n, parts, part)
        for j, fh in enumerate(fhs):
            fh.flush()
            for own in fds:
                size, sent = os.fstat(own[j]).st_size, 0
                while sent < size:
                    copied = os.sendfile(fh.fileno(), own[j], sent, size - sent)
                    if copied == 0:
                        raise OSError(f"{paths[j]}: a part ended after {sent} of its {size} bytes")
                    sent += copied
    except BaseException:
        for fh in fhs:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.unlink(fh.name)
        raise
    finally:
        for fh in fhs:
            fh.close()
        for own in fds:
            for fd in own:
                os.close(fd)
