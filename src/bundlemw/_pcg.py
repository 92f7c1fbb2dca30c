"""numpy's seeded permutations, every stream of a round in one numpy pass.

Row r of what :func:`permutations` yields for ``(seed, round_idx)`` is

    np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(round_idx, r)))).permutation(L)

computed here for a chunk of spawn indices r at once, in uint32/uint64
arithmetic, without importing ``numpy.random``.  NEP 19 does not promise
numpy's Generator streams across releases, so this module pins the ones of
numpy 2.4: SeedSequence's hash mixing (bit_generator.pyx), PCG64's seeding
and XSL-RR output (pcg64.h), and ``permutation``'s Fisher-Yates shuffle with
masked rejection sampling (_generator.pyx, distributions.c).
"""

from __future__ import annotations

import numpy as np

from .geometry import _BLOCK_CELLS

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# PCG64's LCG multiplier.  M - 1 = 4u with u odd, so t steps from s with
# increment c reach M^t s + c (M^t - 1) / (M - 1) = s + E_t (4 s + c / u)
# mod 2^128, where E_t = (M^t - 1) / 4 = M E_{t-1} + u: one product per output.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U = (_MULT - 1) >> 2
_U_INV = pow(_U, -1, 1 << 128)


def _words(n):
    """SeedSequence's little-endian 32-bit words of an int >= 0; 0 is one word."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hash(value, const, mult=0x931E8875):
    """SeedSequence's hashmix of a word or uint32 array, and the next hash
    constant; with MULT_B it is generate_state's hash."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's mix, wrapping as in C for ints and uint32 arrays alike."""
    out = ((0xCA01F9DD * x & _M32) - (0x4973F715 * y & _M32)) & _M32
    return out ^ out >> 16


def _mul(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 of (hi, lo) uint64 pairs, broadcast; only lo * lo
    needs its 32-bit halves for the carry into the high word."""
    a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)
    carry = a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return a_hi * b_lo + a_lo * b_hi + carry, a_lo * b_lo


def _add(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _streams(seed, round_idx, start, stop):
    """For spawn indices start..stop-1 (all below 2^32 or all above): PCG64's
    state s once srandom_r has added the seed, a step before seeding ends,
    and z = 4 s + c / u for its odd increment c, as uint64 (hi, lo) arrays."""
    words = _words(seed)
    entropy = words + [0] * (4 - len(words)) + _words(round_idx)
    const, pool = 0x43B0D7E5, []
    for word in entropy[:4]:
        value, const = _hash(word, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    r = np.arange(start, stop, dtype=np.uint64)
    spawn = [(r & _M32).astype(np.uint32)] + ([(r >> 32).astype(np.uint32)] if start > _M32 else [])
    for word in entropy[4:] + spawn:
        for dst in range(4):
            value, const = _hash(word, const)
            pool[dst] = _mix(pool[dst], value)
    const, state = 0x8B51F9DD, []
    for k in range(8):  # generate_state(4, np.uint64)
        value, const = _hash(pool[k % 4], const, 0x58F38DED)
        state.append(value.astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    # srandom_r: state 0, c = 2 inc + 1, step (state = c), add the seed, step
    c_hi, c_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    s_hi, s_lo = _add(c_hi, c_lo, seed_hi, seed_lo)
    c_u = _mul(c_hi, c_lo, _U_INV >> 64, _U_INV & _M64)
    z_hi, z_lo = _add(s_hi << 2 | s_lo >> 62, s_lo << 2, *c_u)
    return s_hi, s_lo, z_hi, z_lo


def _shuffle(s_hi, s_lo, z_hi, z_lo, L):
    """The (C, L) permutations of C streams: Fisher-Yates in lockstep over the
    streams' 32-bit draws, each masked to the next power of two minus one and
    rejected while above i, for i from L - 1 down to 1."""
    C = len(s_lo)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(L)] + [0])
    # picks[c, i + 1] is the j drawn for i; a rejected draw is overwritten
    # by the accepted one, and finished streams (i = -1) write into column 0
    picks = np.zeros((C, L + 1), dtype=np.int64)
    cells = picks.reshape(-1)
    slots = np.arange(1, C * (L + 1), L + 1)
    i = np.full(C, L - 1)
    e = _U  # E_1: output t is the state t + 1 steps past s
    while (need := int(i.max())) > 0:
        es = []
        for _ in range((need + 1) // 2):  # outputs the slowest stream will use
            e = (e * _MULT + _U) & _M128
            es.append(e)
        hi, lo = _add(*_mul(np.array([x >> 64 for x in es], dtype=np.uint64)[:, None],
                            np.array([x & _M64 for x in es], dtype=np.uint64)[:, None],
                            z_hi, z_lo), s_hi, s_lo)
        x, rot = hi ^ lo, hi >> 58
        out = x >> rot | x << ((64 - rot) & 63)
        draws = np.empty((len(es), 2, C), dtype=np.int64)
        draws[:, 0], draws[:, 1] = out & _M32, out >> 32  # low half first
        for row in draws.reshape(-1, C):
            v = row & masks[i]
            cells[slots + i] = v
            i -= v <= i
    picks *= C  # now the flat index of (j, c) in perms
    picks += np.arange(C)[:, None]
    perms = np.repeat(np.arange(L), C).reshape(L, C)
    flat = perms.reshape(-1)
    for k in range(L - 1, 0, -1):
        held = perms[k].copy()
        perms[k] = flat[picks[:, k + 1]]
        flat[picks[:, k + 1]] = held
    return perms.T


def permutations(seed, round_idx, spawn, L):
    """Yield the permutations of arange(L) for the spawn indices in the range
    ``spawn``, in order, as (chunk, L) arrays.  A chunk of L streams or of
    half a block's cells, whichever is more, keeps the draws' work arrays
    near the size of the scans' blocks.  SeedSequence takes an index below
    2^32 as one word and any other as two, so no chunk holds both."""
    size = max(_BLOCK_CELLS // (2 * L), L)
    start = spawn.start
    while start < spawn.stop:
        stop = min(spawn.stop, start + size)
        if start <= _M32 < stop - 1:
            stop = _M32 + 1
        yield _shuffle(*_streams(seed, round_idx, start, stop), L)
        start = stop
