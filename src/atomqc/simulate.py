"""Dense unitary simulator and verification metrics.

Circuits are turned into full 2^n x 2^n matrices under the package's
big-endian qubit convention.  Verification is always modulo global phase.
"""

from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .exceptions import DimMismatch, SizeTooLarge
from .linalg import MAX_QUBITS, phase_distance

# Phase-invariant Frobenius distance below which a circuit passes ``verify``.
VERIFY_TOL = 1e-7

# How apply_circuit treats a multi-qubit row, by kind code: CZ and CCZ flip
# signs, an X block swaps, MCU and DIAG_PHASE carry a block of their own.
_SIGN_FLIP = {cir.KIND_CODES["CZ"], cir.KIND_CODES["CCZ"]}
_SWAP = {cir.KIND_CODES["CNOT"], cir.KIND_CODES["MCX"]}
_OWN_BLOCK = {cir.KIND_CODES["MCU"], cir.KIND_CODES["DIAG_PHASE"]}
# Above three qubits, apply_circuit cuts its slots into blocks on at most
# three qubits: runs, and these rows when on at most three qubits.
_FIXED = sorted(_SIGN_FLIP | _SWAP)
# Fewest blocks one batched build call serves (each call costs about as
# much as 12 block rows): a block is cut where fewer blocks reach.
_MIN_BATCH = 32
# Most block rows one build call takes, and most slots cut into blocks at
# once, so that temporaries stay in cache and the 8x8s held a few MB.
_CHUNK = 256
_SEGMENT = 32768
# Per local qubit p, a block's rows 0..7 with bit p's 0 half first.
_BIT_FIRST = np.array([sorted(range(8), key=lambda r, p=p: r >> (2 - p) & 1) for p in range(3)])


def apply_gate(u, g, n_qubits):
    """Left-multiply ``u`` (shape ``(2^n, m)``) by the full embedding of ``g``, in place.

    The unfused reference: one general 2x2 mix per gate.  ``u`` must be
    complex128, so that no write drops an imaginary part.
    """
    if u.dtype != np.complex128:
        raise ValueError("apply_gate needs a complex128 array")
    cir.check_qubits(g.qubits, n_qubits)
    controls, polarities, target, block = cir.controlled_block(g)
    a, b = cir.pair_views(u, controls, polarities, target)
    a[...], b[...] = cir.mix(block, a, b)
    return u


def gate_matrix(g, n_qubits):
    """Full 2^n x 2^n embedding of a single gate."""
    return apply_gate(np.eye(2**n_qubits, dtype=complex), g, n_qubits)


def _build_blocks(c, slots, runs, us):
    """Cut ``slots`` in time order into blocks on at most three qubits, and build each block's 8x8.

    A block takes runs and the CZ, CCZ, CNOT and MCX rows on at most three
    qubits; any other row closes it.  A block on fewer qubits is padded
    with the lowest unused ones.  Returns ``(tags, blocks, triples)``:
    ``tags[j]`` is b at block b's first slot, -2 at its later slots and -1
    at a slot that steps alone.  ``blocks[b]`` is block b's 8x8 on the
    sorted qubit triple ``triples[b]``, local qubit 0 the most significant.

    All blocks are built together, one batched call per position in a
    block and per kind: runs, each its 2x2 on the rows of one local qubit,
    and fixed rows, each a signed row permutation (its 8x8 is one).  A
    block is cut every ``cap`` slots, ``cap`` the most that ``_MIN_BATCH``
    blocks fill, so that every call serves that many; a block of one slot
    steps alone.
    """
    n = c.n_qubits
    is_run = slots >= 0
    rows = ~slots[~is_run]
    qubits = c.qubits[rows]
    masks = np.full(len(slots), 2**n - 1)
    masks[is_run] = 1 << runs[slots[is_run], 0]
    fixed = np.isin(c.kinds[rows], _FIXED) & (c.widths[rows] <= 3)
    masks[~is_run] = np.where(fixed, np.where(qubits >= 0, 1 << qubits.clip(0), 0).sum(1), 2**n - 1)
    el = (masks != 2**n - 1).nonzero()[0]  # the slots blocks take, in time order
    tags = np.full(len(slots), -1)
    if len(el) < 2 * _MIN_BATCH:  # too few for _MIN_BATCH blocks of two slots
        return tags, None, None
    # Greedy in time order: a slot joins the open block while their union has at most three qubits.
    first, open_mask = [], 2**n - 1
    for m in masks.tolist():
        joined = open_mask | m
        first.append(joined.bit_count() > 3)
        open_mask = m if first[-1] else joined
    starts = np.array(first, dtype=bool)[el].nonzero()[0]
    lengths = np.diff(starts, append=len(el))
    # The cap is the largest L whose pieces of L slots, (lengths // L).sum(),
    # number _MIN_BATCH: at least 1 here, at most len(el) // _MIN_BATCH, and
    # found by bisection, as the count does not grow with L.
    cap, hi = 1, len(el) // _MIN_BATCH
    while cap < hi:
        mid = (cap + hi + 1) // 2
        cap, hi = (mid, hi) if (lengths // mid).sum() >= _MIN_BATCH else (cap, mid - 1)
    depth = np.arange(len(el)) - np.repeat(starts, lengths)
    depth %= cap
    starts = (depth == 0).nonzero()[0]
    lengths = np.diff(starts, append=len(el))
    keep = np.repeat(lengths > 1, lengths)
    el, depth, lengths = el[keep], depth[keep], lengths[lengths > 1]
    if not len(el):
        return tags, None, None
    starts = lengths.cumsum() - lengths
    block = np.repeat(np.arange(len(starts)), lengths)
    sets, which = np.unique(np.bitwise_or.reduceat(masks[el], starts), return_inverse=True)
    local = np.full((len(sets), n + 1), 3)  # each qubit's place in a block's triple, 3 if none
    triples = []
    for i, m in enumerate(sets.tolist()):
        used = [q for q in range(n) if m >> q & 1]
        triple = sorted(used + [q for q in range(n) if not m >> q & 1][:3 - len(used)])
        local[i, triple] = range(3)
        triples.append(tuple(triple))
    el_slots = slots[el]
    run_el = el_slots >= 0
    # Each element's row order: a run's with its local qubit's bit first,
    # a fixed row's as its template (its gate on the local qubits) permutes them.
    pattern = np.empty(len(el), dtype=np.intp)
    pattern[run_el] = local[which[block[run_el]], runs[el_slots[run_el], 0]]
    f_rows = ~el_slots[~run_el]
    f_local = np.full((len(f_rows), 3), 3)
    f_pol = np.full((len(f_rows), 3), -1)
    width = min(3, c.qubits.shape[1])
    f_local[:, :width] = local[which[block[~run_el]][:, None], c.qubits[f_rows, :width]]
    f_pol[:, :width] = c.polarities[f_rows, :width]
    key = c.kinds[f_rows].astype(np.intp)
    for j in range(3):
        key = (key * 4 + f_local[:, j]) * 3 + f_pol[:, j] + 1
    _, one, template = np.unique(key, return_index=True, return_inverse=True)
    pattern[~run_el] = 3 + template
    templates = np.array([gate_matrix(cir.Gate(
        cir.KINDS[c.kinds[f_rows[i]]], tuple(f_local[i][f_local[i] < 3].tolist()),
        polarities=tuple(f_pol[i][f_pol[i] >= 0].tolist()) or None), 3).real
        for i in one.tolist()]).reshape(-1, 8, 8)
    perms = np.abs(templates).argmax(2)
    signs = np.take_along_axis(templates, perms[:, :, None], 2).astype(complex)
    row_orders = np.concatenate([_BIT_FIRST, perms])
    blocks = np.tile(np.eye(8, dtype=complex), (len(starts), 1, 1))
    flat = blocks.reshape(-1, 8)
    # Elements by position and kind, each with its block's 8 flat rows in its order.
    group = 2 * depth + ~run_el
    order = group.argsort(kind="stable")
    ends = np.bincount(group).cumsum().tolist()
    at = (8 * block[order])[:, None] + row_orders[pattern[order]]
    for lo, hi in zip([0] + ends[:-1], ends):
        for lo in range(lo, hi, _CHUNK):
            e, r = order[lo:hi][:_CHUNK], at[lo:hi][:_CHUNK]
            x = flat.take(r, axis=0)
            if run_el[e[0]]:
                flat[r] = (us[el_slots[e]] @ x.reshape(len(e), 2, -1)).reshape(-1, 8, 8)
            else:
                x *= signs[pattern[e] - 3]
                blocks[block[e]] = x
    tags[el] = -2
    tags[el[starts]] = range(len(starts))
    return tags, blocks, [triples[i] for i in which.tolist()]


def apply_circuit(u, c):
    """Left-multiply ``u`` (shape ``(2^n, m)``) by ``c``'s unitary, in place.

    Each single-qubit run is applied once, as its fused 2x2, in the slot
    ``cir.collect_runs`` gives it.  Above three qubits, the slots are cut
    into blocks on at most three qubits (``_build_blocks``), each applied
    as one 8x8, ``_SEGMENT`` slots at a time.  A slot that steps alone
    applies a run as its 2x2; CZ and CCZ flip the sign of the rows they
    select, an X block swaps its row pairs, and every other gate mixes
    them.  ``e^{i global_phase}`` is applied last.  ``u`` must be
    C-contiguous, so that every reshape is a view, and complex128, so that
    no write drops an imaginary part.
    """
    n = c.n_qubits
    if u.shape[0] != 2**n:
        raise DimMismatch(f"{u.shape[0]} rows for a {n}-qubit circuit")
    if not u.flags.c_contiguous:
        raise ValueError("apply_circuit needs a C-contiguous array")
    if u.dtype != np.complex128:
        raise ValueError("apply_circuit needs a complex128 array")
    all_slots, runs, us = cir.collect_runs(c)
    # One batched 2x2 matmul per run over the view (2^q, 2, rest) of its
    # qubit: fewer array passes than the general mix, equal up to rounding.
    run_views = [u.reshape(cir.block_index((), (), q)[0]) for q in range(n)]
    run_qubits = runs[:, 0].tolist()
    # A block's view of u has its triple's axes first, made once per triple.
    tensor = u.reshape((2,) * n + (-1,))
    block_views = {}
    # Each multi-qubit row's pair views and block, made once per distinct
    # (kind, qubits, polarities), or per row for an MCU or DIAG_PHASE.
    ops = {}
    for start in range(0, len(all_slots), _SEGMENT):
        slots = all_slots[start:start + _SEGMENT]
        tags, blocks, triples = (_build_blocks(c, slots, runs, us) if n > 3
                                 else (np.full(len(slots), -1), None, None))
        for t in set(triples or ()).difference(block_views):
            block_views[t] = tensor.transpose(t + tuple(q for q in range(n + 1) if q not in t))
        rows = ~slots[(slots < 0) & (tags == -1)]
        kinds = c.kinds[rows].tolist()
        keys = [row if kind in _OWN_BLOCK else (kind, *qubits, *polarities)
                for row, kind, qubits, polarities
                in cir.column_rows((rows, c.kinds[rows], c.qubits[rows], c.polarities[rows]))]
        row_of = {key: row for key, row in zip(keys, rows.tolist()) if key not in ops}
        pair_blocks = map(cir.controlled_block, c.to_gates(list(row_of.values())))
        ops.update((key, (*cir.pair_views(u, *where), block))
                   for key, (*where, block) in zip(row_of, pair_blocks))
        steps = zip(kinds, map(ops.__getitem__, keys))
        taken = tags != -2
        for s, t in zip(slots[taken].tolist(), tags[taken].tolist()):
            if t >= 0:
                v = block_views[triples[t]]
                v[...] = (blocks[t] @ v.reshape(8, -1)).reshape(v.shape)
            elif s >= 0:
                v = run_views[run_qubits[s]]
                v[...] = us[s] @ v
            else:
                kind, (a, b, block) = next(steps)
                if kind in _SIGN_FLIP:
                    np.negative(b, out=b)
                elif kind in _SWAP:
                    a[...], b[...] = b, a.copy()
                else:
                    a[...], b[...] = cir.mix(block, a, b)
    u *= np.exp(1j * c.global_phase)
    return u


def circuit_unitary(c):
    """Product of gate matrices in time order, times ``e^{i global_phase}``."""
    if c.n_qubits > MAX_QUBITS:
        raise SizeTooLarge(f"simulation capped at {MAX_QUBITS} qubits")
    return apply_circuit(np.eye(2**c.n_qubits, dtype=complex), c)


def cnot_lower_bound(n):
    """Theoretical minimum CNOT count for exact n-qubit synthesis."""
    return -(-(4**n - 3 * n - 1) // 4)


@dataclass(frozen=True)
class CompileReport:
    n_qubits: int
    counts: cir.GateCounts
    distance: float
    lower_bound: int
    tolerance: float
    passed: bool


def verify(c, target, tol=VERIFY_TOL):
    """Distance of the circuit's unitary from ``target``, modulo global phase."""
    dist = phase_distance(circuit_unitary(c), np.asarray(target))
    return CompileReport(
        n_qubits=c.n_qubits,
        counts=cir.gate_counts(c),
        distance=dist,
        lower_bound=cnot_lower_bound(c.n_qubits),
        tolerance=tol,
        passed=dist < tol,
    )
