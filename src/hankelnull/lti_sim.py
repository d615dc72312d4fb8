"""Discrete-time LTI simulation and noisy multi-experiment dataset generation.

All randomness flows from a single root generator. Anything that touches
several experiments derives one child stream per experiment index up front.
generate_dataset spawns its Nt streams first, so a noiseless record i
depends only on the root seed and i. add_noise spawns its streams from the
same root afterwards, so the noise on record i also depends on how many
streams were spawned before it, that is on the ensemble size: the first k
records of a noisy ensemble are not the noisy k-record ensemble.
Everything else runs as array code over the whole ensemble, or over blocks
of BLOCK_SIZE records where a per-record temporary would otherwise grow
with the ensemble. Dataset text I/O, which is bound by float formatting
and parsing, runs in forked processes on a machine with more than one CPU
when the files are big enough to repay the fork (see _concurrently).
"""

import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .hankel import pe_order_check

__all__ = [
    "StateSpace",
    "Experiment",
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

BLOCK_SIZE = 512  # records per block in the excitation check, the writer and aggregation
MAX_TRIES = 10  # input draws per record before the excitation check gives up
FORK_MIN_SAMPLES = 50_000  # samples a forked I/O process must format or parse to repay starting it


@dataclass(frozen=True)
class StateSpace:
    """x_{k+1} = A x_k + B u_k,  y_k = C x_k + D u_k."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
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
class Experiment:
    """One input-output trajectory, u of shape (N, m) and y of shape (N, p)."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("u", "y"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2:
                raise ValueError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.u.shape[0] != self.y.shape[0]:
            raise ValueError(f"u has {self.u.shape[0]} samples but y has {self.y.shape[0]}")


@dataclass(frozen=True)
class Dataset:
    """Nt records sharing N, m and p: inputs U (Nt, N, m), outputs Y (Nt, N, p).

    Indexing with an integer gives one record as an Experiment; a slice
    gives a smaller Dataset over the same arrays. Every sample must be
    finite.
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
        bad = ~(np.isfinite(U).all(axis=(1, 2)) & np.isfinite(Y).all(axis=(1, 2)))
        if bad.any():
            raise ValueError(f"record {int(np.argmax(bad))} has non-finite samples")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Dataset(self.U[key], self.Y[key])
        return Experiment(self.U[key], self.Y[key])

    def __iter__(self):
        return (Experiment(u, y) for u, y in zip(self.U, self.Y))

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


@dataclass(frozen=True)
class NoiseSpec:
    """I.i.d. scalar noise family pinned down by its first two raw moments.

    m1 and m2 are raw moments, so the variance is m2 - m1**2. A zero-variance
    spec is allowed and means a deterministic offset of m1. All families have
    finite moments of every order.
    """

    family: str
    m1: float
    m2: float

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}, expected one of {NOISE_FAMILIES}")
        if self.m2 < self.m1 ** 2:
            raise ValueError(f"m2={self.m2} implies negative variance for m1={self.m1}")

    @property
    def variance(self) -> float:
        return self.m2 - self.m1 ** 2

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        var = self.variance
        if var == 0.0:
            return np.full(shape, self.m1)
        if self.family == "gaussian":
            return rng.normal(self.m1, math.sqrt(var), shape)
        if self.family == "uniform":
            # half-width w solves (2w)^2 / 12 = var
            w = math.sqrt(3.0 * var)
            return rng.uniform(self.m1 - w, self.m1 + w, shape)
        # shifted exponential with scale s has mean shift+s and variance s^2
        s = math.sqrt(var)
        return (self.m1 - s) + rng.exponential(s, shape)


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


def simulate(ss: StateSpace, x0, U) -> Experiment:
    """Run the exact state recursion over an input sequence.

    Returns the experiment (U, Y) with y_k = C x_k + D u_k and
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
    return Experiment(U.copy(), _simulate_batch(ss, x[None], U[None])[0])


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

    Each experiment gets its own child stream, and within a stream the input
    block is drawn before the output block, so corruption is reproducible and
    independent across time, channels, experiments and the two signals.
    """
    U, Y = ds.U.copy(), ds.Y.copy()
    for i, g in enumerate(rng.spawn(ds.Nt)):
        U[i] += spec_u.draw(g, U.shape[1:])
        Y[i] += spec_y.draw(g, Y.shape[1:])
    return Dataset(U, Y)


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
    input, from child stream i; an input that fails the excitation check is
    redrawn from the same stream, up to MAX_TRIES draws in all.
    """
    if Nt < 1:
        raise ValueError("Nt must be >= 1")
    if x0_policy not in X0_POLICIES:
        raise ValueError(f"unknown x0 policy {x0_policy!r}")
    order = L + ss.n
    if N < (ss.m + 1) * order - 1:
        raise ValueError(f"N={N} too short for excitation order L+n={order} with m={ss.m}; need N >= {(ss.m + 1) * order - 1}")
    streams = rng.spawn(Nt)
    X0 = np.zeros((Nt, ss.n))
    U = np.empty((Nt, N, ss.m))
    for i, g in enumerate(streams):
        if x0_policy == "random-bounded":
            X0[i] = g.uniform(-x0_halfwidth, x0_halfwidth, ss.n)
        U[i] = g.standard_normal((N, ss.m))
    for a in range(0, Nt, BLOCK_SIZE):
        for i in a + np.flatnonzero(~pe_order_check(U[a : a + BLOCK_SIZE], order)):
            try:
                U[i] = generate_pe_input(N, ss.m, order, streams[i], MAX_TRIES - 1)
            except RuntimeError:
                raise RuntimeError(f"record {i}: no exciting input of order {order} found in {MAX_TRIES} draws") from None
    if Nt == 1:
        # a one-row batch takes numpy's matrix-vector product, which rounds
        # differently from the matrix-matrix product of larger batches;
        # simulating the record twice keeps it the same at every ensemble size
        return Dataset(U, _simulate_batch(ss, np.repeat(X0, 2, axis=0), np.repeat(U, 2, axis=0))[:1])
    return Dataset(U, _simulate_batch(ss, X0, U))


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

    Each block of records is formatted by one %-operation over its rows.
    """
    record = _record_format(ds.N, ds.m, ds.p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": {"Nt": ds.Nt, "N": ds.N, "m": ds.m, "p": ds.p}}) + "\n")
        for a in range(0, ds.Nt, BLOCK_SIZE):
            U, Y = ds.U[a : a + BLOCK_SIZE], ds.Y[a : a + BLOCK_SIZE]
            B = U.shape[0]
            rows = np.concatenate([np.arange(a, a + B, dtype=float)[:, None], U.reshape(B, -1), Y.reshape(B, -1)], axis=1)
            fh.write(record * B % tuple(rows.ravel().tolist()))


# ints parse as floats so that a sample written as "-0" keeps its sign
_decode_record = json.JSONDecoder(parse_int=float).decode


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset into arrays sized from its meta header.

    A regular file's records are cut at line starts into _load_parts byte
    ranges that are parsed at once (see _concurrently); any other file, a
    pipe say, is read in one pass. Each record gets the same checks either
    way, and an error names it by its index in the whole file.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        meta = header.get("meta") if isinstance(header, dict) else None
        try:
            Nt, N, m, p = (int(meta[k]) for k in ("Nt", "N", "m", "p"))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: first line needs a meta header object with integer Nt, N, m and p") from None
        if min(Nt, N, m, p) < 1:
            raise ValueError(f"{path}: meta header needs positive Nt, N, m and p, got {meta}")
        samples = Nt * N * (m + p)
        parts = _load_parts(fh.fileno(), samples)
        if parts == 1:
            U, Y = np.empty((Nt, N, m)), np.empty((Nt, N, p))
            i = _parse_records(fh, path, math.inf, 0, U, Y)
        else:
            ranges = _record_ranges(fh, parts)
    if parts > 1:
        # forked parsers write straight into the caller's arrays
        U, Y = _shared_empty((Nt, N, m)), _shared_empty((Nt, N, p))
        calls = [functools.partial(_parse_range, path, a, b, first, U, Y) for a, b, first in ranges]
        i = _concurrently(calls, samples)[-1]
    if i != Nt:
        raise ValueError(f"{path}: {i} experiment lines disagree with the meta header's Nt={Nt}")
    try:
        return Dataset(U, Y)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_parts(file, samples: int) -> int:
    """Byte ranges load_dataset parses at once from a file (a path or a
    descriptor) holding this many samples: see _processes. A file that is
    not regular cannot be cut, so it is one range."""
    if not stat.S_ISREG(os.stat(file).st_mode):
        return 1
    return _processes(_cpus(), samples)


def _record_ranges(fh, parts: int) -> list:
    """Cut the rest of an open dataset file into `parts` byte ranges of about
    equal size, each starting at a line start.

    Returns (start, end, first) per range, where first is the index of the
    range's first record; the lines before the last cut are read once to
    count them.
    """
    start = pos = fh.tell()
    size = os.fstat(fh.fileno()).st_size
    cuts, firsts, records = [start], [0], 0
    for k in range(1, parts):
        target = start + (size - start) * k // parts
        while pos < target:
            line = fh.readline()
            if not line:
                break
            pos += len(line)
            # blank as _parse_records sees it; bytes that are not UTF-8 are no whitespace
            records += bool(line.decode("utf-8", "replace").strip())
        cuts.append(pos)
        firsts.append(records)
    return list(zip(cuts, cuts[1:] + [size], firsts))


def _parse_range(path, start: int, end: int, i: int, U: np.ndarray, Y: np.ndarray) -> int:
    """Parse the dataset lines in bytes [start, end) of path: see _parse_records."""
    with open(path, "rb") as fh:
        fh.seek(start)
        return _parse_records(fh, path, end - start, i, U, Y)


def _parse_records(fh, path, size, i: int, U: np.ndarray, Y: np.ndarray) -> int:
    """Parse dataset lines from fh into U[i:] and Y[i:] until size bytes are read.

    i is the index of the first record read; blank lines are skipped.
    Returns the index after the last record parsed.
    """
    Nt, N, m = U.shape
    p = Y.shape[2]
    for line in fh:
        if size <= 0:
            break
        size -= len(line)
        text = line.decode("utf-8")
        if not text.strip():
            continue
        if i == Nt:
            raise ValueError(f"{path}: more experiment lines than the meta header's Nt={Nt}")
        obj = _decode_record(text)
        try:
            e = Experiment(obj["u"], obj["y"])
        except (KeyError, TypeError):
            raise ValueError(f"{path}: record {i} needs u and y sample arrays") from None
        except ValueError as err:
            raise ValueError(f"{path}: record {i}: {err}") from None
        if e.u.shape != (N, m) or e.y.shape != (N, p):
            raise ValueError(f"{path}: record {i} has u {e.u.shape} and y {e.y.shape}, meta header says ({N}, {m}) and ({N}, {p})")
        U[i], Y[i] = e.u, e.y
        i += 1
    return i


def _shared_empty(shape) -> np.ndarray:
    """An uninitialised float array in an anonymous shared mapping, so that
    what a forked child writes into it, this process sees."""
    import mmap  # here, so that importing hankelnull does not load it

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _cpus() -> int:
    """CPUs this process may run on, or 1 where _concurrently cannot fork.

    It cannot off Linux, nor inside a daemonic multiprocessing worker (a
    Pool's, say), which may not start children.
    """
    mp = sys.modules.get("multiprocessing")
    if sys.platform != "linux" or (mp is not None and mp.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _processes(calls: int, samples: int) -> int:
    """How many processes share calls that format or parse this many samples
    in all: one per call and CPU, but only as many as get FORK_MIN_SAMPLES
    samples each."""
    return max(1, min(calls, _cpus(), samples // FORK_MIN_SAMPLES))


def _concurrently(calls, samples: int) -> list:
    """Run zero-argument calls that format or parse this many samples in all
    at once; return their results in call order.

    The first call runs in this process. Where _processes gives more than
    one, each other call runs in a child process started with fork, which
    sends back its return value or its exception over a pipe; a call that
    fills an array makes it with _shared_empty. The first failure in call
    order is raised here, and every child has ended when this returns.
    Otherwise the calls run in order in this process.

    fork, not spawn or forkserver: the child starts with the caller's data
    and imports nothing, so a caller script needs no `if __name__ ==
    "__main__":` guard. Python 3.12 and later warn when a multi-threaded
    process forks, because a lock held by another thread stays locked in
    the child. The calls made here only format or parse text: they call no
    BLAS and take no lock that another thread could hold.
    """
    if _processes(len(calls), samples) == 1:
        return [call() for call in calls]
    import multiprocessing  # here, so that importing hankelnull does not load it

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for call in calls[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(call, send), daemon=True)
            child.start()
            send.close()
            children.append((child, recv))
        return [calls[0](), *(_receive(child, recv) for child, recv in children)]
    except BaseException:
        for child, _ in children:
            child.terminate()  # a later failure, or a result no longer wanted
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()


def _child(call, send) -> None:
    """The body of a child of _concurrently: run the call and send back what it gave."""
    try:
        value = call()
    except BaseException as err:
        try:
            send.send((False, err))
        except Exception:  # the exception does not pickle
            send.send((False, ChildProcessError(f"{type(err).__name__}: {err}")))
        return
    send.send((True, value))


def _receive(child, recv):
    """A child's return value, or its exception raised."""
    try:
        ok, value = recv.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"a forked I/O process exited with code {child.exitcode} before sending its result") from None
    if not ok:
        raise value
    return value
