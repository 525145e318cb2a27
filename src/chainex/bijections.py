"""Weight-preserving constructive maps between partition families.

Every forward map here has an explicit inverse and an independent
codomain-membership checker.  The two main families:

* merge/split style maps between partitions classified by multiples of r
  and partitions classified by r-repeating parts (``glaisher_merge``,
  ``multiples_to_repeats``, ``top_multiple_to_repeats`` and inverses);

* index-to-pair maps that turn a partition together with a cut index into
  an ordered pair (alpha, beta), where alpha is (r+1)-strict and beta has
  constrained multiplicities (``mex_pairing``, ``mex_pairing_colored``,
  ``maex_pairing`` and inverses).  These realize the excludant-sum
  identities at the level of individual objects.

The CLI exposes the index-to-pair maps under the names gamma, gamma-star
and delta.
"""

from __future__ import annotations

from collections import namedtuple

from .partition import (
    Partition,
    _cut_pairs,
    _merge_pairs,
    chain_mex_maex,
    is_regular,
    is_strict,
    largest_repeating,
)


class DomainError(ValueError):
    """Raised when an input violates a map's domain contract."""


class ColoredEmpty(namedtuple("ColoredEmpty", "color")):
    """An empty beta side carrying one of r colors (1-based).  It is a
    tuple underneath but equals only another colored empty."""
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is ColoredEmpty and self[0] == other[0]

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def to_json(self):
        return {"empty_color": self.color}

    def __str__(self):
        return f"[]#{self.color}"


class PartitionPair(namedtuple("PartitionPair", "alpha beta case steps",
                               defaults=(None, None))):
    """Ordered pair (alpha, beta); beta is a Partition or a ColoredEmpty.

    ``case`` records which branch of the forward map produced the pair, and
    ``steps`` the intermediate steps that ``pairing_trace`` reports; both
    are debugging metadata, excluded from equality and hash, and ``steps``
    from the repr.  Every forward image and every codomain candidate builds
    one, so the value is a tuple, which builds in less than half the time
    of a frozen dataclass; it equals only another pair, never a plain tuple.
    """
    __slots__ = ()

    def __eq__(self, other):
        return (other.__class__ is PartitionPair
                and self[0] == other[0] and self[1] == other[1])

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self[0], self[1]))

    def __repr__(self):
        return f"PartitionPair(alpha={self.alpha!r}, beta={self.beta!r}, case={self.case!r})"

    @property
    def weight(self) -> int:
        beta_weight = 0 if isinstance(self.beta, ColoredEmpty) else self.beta.weight
        return self.alpha.weight + beta_weight

    def to_json(self):
        beta = (self.beta.to_json() if isinstance(self.beta, ColoredEmpty)
                else str(self.beta))
        return {"alpha": str(self.alpha), "beta": beta}


IndexedPartition = namedtuple("IndexedPartition", "lam i")


# ---------------------------------------------------------------------------
# Glaisher-style merge/split
# ---------------------------------------------------------------------------

def _merge_digits(pairs: tuple, r: int) -> tuple:
    """glaisher_merge on the pairs of an r-regular partition: the m copies
    of v go to v*r^k, d_k copies each, for the base-r digits d_k of m.
    Distinct r-regular values never reach one value, so the pairs only
    need sorting."""
    out = []
    for v, m in pairs:
        while m:
            m, d = divmod(m, r)
            if d:
                out.append((v, d))
            v *= r
    out.sort(reverse=True)
    return tuple(out)


def _split_digits(pairs: tuple, r: int) -> tuple:
    """glaisher_split on the pairs of an r-strict partition: m copies of
    u*r^k, u not divisible by r, become m*r^k copies of u, and the copies
    that land on one u add up."""
    counts = {}
    for v, m in pairs:
        while v % r == 0:
            v //= r
            m *= r
        counts[v] = counts.get(v, 0) + m
    return tuple(sorted(counts.items(), reverse=True))


def glaisher_merge(lam: Partition, r: int) -> Partition:
    """Merge every r equal copies into a single r-fold part, repeatedly,
    until every multiplicity is below r.  Input must be r-regular."""
    if r < 2:
        raise DomainError("merge modulus r must be >= 2")
    for v, _ in lam.pairs:
        if v % r == 0:
            raise DomainError(f"part {v} is divisible by {r}; input must be {r}-regular")
    return Partition._from_pairs(_merge_digits(lam.pairs, r))


def glaisher_split(lam: Partition, r: int) -> Partition:
    """Split every part divisible by r into r equal copies, repeatedly,
    until no part is divisible by r.  Input must be r-strict."""
    if r < 2:
        raise DomainError("split modulus r must be >= 2")
    for v, m in lam.pairs:
        if m >= r:
            raise DomainError(f"part {v} has multiplicity {m}; input must be {r}-strict")
    return Partition._from_pairs(_split_digits(lam.pairs, r))


# ---------------------------------------------------------------------------
# Maps between multiples-of-r and r-repeating families
# ---------------------------------------------------------------------------

def _to_repeat_form(lam: Partition, r: int) -> Partition:
    # the parts not divisible by r merge, the multiples of r conjugate
    other = tuple(p for p in lam.pairs if p[0] % r)
    mult = Partition._from_pairs(tuple(p for p in lam.pairs if not p[0] % r))
    return Partition._from_pairs(_merge_pairs(_merge_digits(other, r), mult.conjugate().pairs))


def _to_multiple_form(nu: Partition, r: int) -> Partition:
    # Extract the largest multiple of r from each multiplicity; what stays
    # behind is r-strict, what leaves has all multiplicities divisible by r.
    rest = tuple((v, m % r) for v, m in nu.pairs if m % r)
    repeated = Partition._from_pairs(tuple((v, m - m % r) for v, m in nu.pairs if m >= r))
    return Partition._from_pairs(_merge_pairs(_split_digits(rest, r), repeated.conjugate().pairs))


def multiples_to_repeats(lam: Partition, r: int) -> Partition:
    """Send a partition with j multiples of r (any j >= 0) to one whose
    largest r-repeating part is j, preserving weight."""
    if r < 2:
        raise DomainError("r must be >= 2")
    return _to_repeat_form(lam, r)


def repeats_to_multiples(nu: Partition, r: int) -> Partition:
    """Inverse of multiples_to_repeats."""
    if r < 2:
        raise DomainError("r must be >= 2")
    return _to_multiple_form(nu, r)


def top_multiple_to_repeats(lam: Partition, r: int) -> Partition:
    """Send a partition whose largest multiple of r occurs exactly j times
    to one whose smallest r-repeating part is j.  Requires at least one
    part divisible by r."""
    if r < 2:
        raise DomainError("r must be >= 2")
    if is_regular(lam, r):
        raise DomainError(f"input has no part divisible by {r}")
    return _to_repeat_form(lam, r)


def repeats_to_top_multiple(nu: Partition, r: int) -> Partition:
    """Inverse of top_multiple_to_repeats.  Requires an r-repeating part."""
    if r < 2:
        raise DomainError("r must be >= 2")
    if is_strict(nu, r):
        raise DomainError(f"input has no {r}-repeating part")
    return _to_multiple_form(nu, r)


# ---------------------------------------------------------------------------
# Pair operator: reduce beta multiplicities mod (r+1), one end kept intact
# ---------------------------------------------------------------------------

def _shift_residues(lp: Partition, cut: int, r: int, keep: str):
    """Cut lp before its part number ``cut`` (1 <= cut <= num_parts + 1)
    and apply the pair operator of gamma (``keep="largest"``: beta is the
    lower piece) or delta (``keep="smallest"``: beta is the upper piece).

    Write each beta multiplicity as q(r+1)+h with 0 <= h <= r.  The kept
    end of beta, the value next to the cut, stays untouched; for every
    other value the h leftover copies migrate to alpha, the other piece.
    They lie strictly below the upper piece (gamma) or above the lower
    piece (delta), so alpha is that piece with the moved pairs appended or
    prepended.  Returns (alpha, beta, moved), moved being the (value,
    copies) pairs for tracing.
    """
    upper, lower = _cut_pairs(lp._pairs, cut)
    gamma = keep == "largest"
    shifted = lower[1:] if gamma else upper[:-1]
    stay, moved = [], []
    for v, m in shifted:
        h = m % (r + 1)
        if h:
            moved.append((v, h))
        if m > h:
            stay.append((v, m - h))
    moved = tuple(moved)
    if gamma:
        return (Partition._from_pairs(upper + moved),
                Partition._from_pairs(lower[:1] + tuple(stay)), moved)
    return (Partition._from_pairs(moved + lower),
            Partition._from_pairs(tuple(stay) + upper[-1:]), moved)


# ---------------------------------------------------------------------------
# Codomain checkers (independent of the forward constructions)
# ---------------------------------------------------------------------------

def in_mex_codomain(pair: PartitionPair, r: int) -> bool:
    """Pairs hit by mex_pairing: alpha is (r+1)-strict; if beta is nonempty
    its largest value has multiplicity not divisible by r+1 and every
    smaller value has multiplicity divisible by r+1."""
    beta = pair.beta
    if isinstance(beta, ColoredEmpty) or not is_strict(pair.alpha, r + 1):
        return False
    pairs = beta._pairs
    if not pairs:
        return True
    if not pairs[0][1] % (r + 1):
        return False
    for _, m in pairs[1:]:
        if m % (r + 1):
            return False
    return True


def in_colored_codomain(pair: PartitionPair, r: int) -> bool:
    """Pairs hit by mex_pairing_colored: as in_mex_codomain but the empty
    beta is replaced by r colored copies."""
    if isinstance(pair.beta, ColoredEmpty):
        return 1 <= pair.beta.color <= r and is_strict(pair.alpha, r + 1)
    return (not pair.beta.is_empty) and in_mex_codomain(pair, r)


def in_maex_codomain(pair: PartitionPair, r: int) -> bool:
    """Pairs hit by maex_pairing: alpha is (r+1)-strict; in beta every
    value above the smallest has multiplicity divisible by r+1."""
    beta = pair.beta
    if isinstance(beta, ColoredEmpty) or not is_strict(pair.alpha, r + 1):
        return False
    for _, m in beta._pairs[:-1]:
        if m % (r + 1):
            return False
    return True


def _check_r(r: int):
    if r < 1:
        raise DomainError("r must be >= 1")


def _check_index(i: int, bound: int, lam: Partition):
    # the message is formatted only on failure: the forward maps run this
    # check once per call
    if not 1 <= i <= bound:
        raise DomainError(f"index {i} outside 1..{bound} for {lam}")


def pairing_trace(lam: Partition, i: int, r: int, pair: PartitionPair) -> dict:
    """JSON-friendly trace of the forward call that sent (lam, i) at r to
    ``pair``, from the steps the pair carries: the conjugate, the cut index,
    the moved copies and the extra move.  A colored empty has no cut, and
    its trace holds only the conjugate."""
    conjugate, cut, moved, extra = pair.steps
    intermediate = {"conjugate": str(conjugate)}
    if cut is not None:
        intermediate["cut_index"] = cut
        intermediate["moves"] = [{"value": v, "copies": h} for v, h in moved]
    if extra is not None:
        intermediate["extra_move"] = {"value": extra[0], "copies": extra[1]}
    return {
        "input": {"lambda": str(lam), "i": i, "r": r},
        "case": pair.case,
        "intermediate": intermediate,
        "output": pair.to_json(),
    }


# ---------------------------------------------------------------------------
# Index-to-pair map for the chain-mex sum (CLI name: gamma)
# ---------------------------------------------------------------------------

def _mex_pairing(lam: Partition, i: int, r: int, colored: bool) -> PartitionPair:
    """gamma, or gamma-star when ``colored`` (no cut for a colored empty)."""
    _check_r(r)
    m, maex = chain_mex_maex(lam, r)
    gap_bounded = not maex
    # gamma's index bound adds the class offset (see mex_offset); the
    # colored extension adds r - 1 on both classes
    _check_index(i, m if gap_bounded and not colored else m + r - 1, lam)
    lp = lam.conjugate()
    if colored and gap_bounded and i >= m:
        return PartitionPair(lp, ColoredEmpty(i - m + 1), "colored", (lp, None, (), None))
    alpha, beta, moved = _shift_residues(lp, i, r, "largest")
    extra = None
    if gap_bounded or i <= m - 1:
        case = "case1" if gap_bounded else "case2"
    else:
        # g = parts_above(lam, m) is the largest value of lp with more than
        # r copies (see _mex_unpairing), and k its multiplicity; off the gap
        # class the run at the mex lies below a part, so g exists
        g = largest_repeating(lp, r + 1)
        assert g > 0, f"no part above the chain mex of {lam} at r={r}"
        k = lp.multiplicity(g)
        if (k - (i - m)) % (r + 1) == 0:
            case = "case3.2"
            copies = r - (i - m)
            beta = beta.with_copies(g, -copies)
            alpha = alpha.with_copies(g, copies)
            extra = (g, copies)
        else:
            case = "case3.1"
    return PartitionPair(alpha, beta, case, (lp, i, moved, extra))


def mex_pairing(lam: Partition, i: int, r: int) -> PartitionPair:
    """Map (lam, i) with 1 <= i <= chain_mex + offset to a pair (alpha, beta)
    with alpha (r+1)-strict and beta constrained as in in_mex_codomain.
    Weight is preserved: |alpha| + |beta| = |lam|."""
    return _mex_pairing(lam, i, r, False)


def _mex_unpairing(pair: PartitionPair, r: int) -> IndexedPartition:
    """mex_pairing_inv on a pair already checked against its codomain."""
    alpha, beta = pair.alpha, pair.beta
    union = _merge_pairs(alpha._pairs, beta._pairs)
    # lam is the conjugate of the union, so its parts are the running
    # counts of union parts, and a run of >= r values missing from lam is
    # a union value with more than r copies.  The r-chain mex m of lam is 1
    # plus the number of union parts above the largest such value g, and g
    # is the number of parts of lam above m (g = 0 when there is none).
    m, g = 1, 0
    for v, k in union:
        if k > r:
            g = v
            break
        m += k
    top = beta.largest
    # The branch that moved extra copies leaves exactly r copies of g in
    # alpha and keeps g on top of beta; outside it beta's largest value
    # exceeds g whenever g occurs in alpha at all.
    if g and top == g and alpha.multiplicity(g) == r:
        i = m + k % (r + 1)
    else:
        i = 1
        for v, c in alpha._pairs:
            if v < top:
                break
            i += c
    return IndexedPartition(Partition._from_pairs(union).conjugate(), i)


def mex_pairing_inv(pair: PartitionPair, r: int) -> IndexedPartition:
    """Inverse of mex_pairing."""
    if not in_mex_codomain(pair, r):
        raise DomainError(f"pair {pair.to_json()} violates the codomain constraints")
    return _mex_unpairing(pair, r)


# ---------------------------------------------------------------------------
# Colored extension (CLI name: gamma-star)
# ---------------------------------------------------------------------------

def mex_pairing_colored(lam: Partition, i: int, r: int) -> PartitionPair:
    """Extension of mex_pairing to the uniform index range
    1 <= i <= chain_mex + r - 1; the surplus indices on the gap-bounded
    class map to pairs whose empty beta carries a color in 1..r.

    Beta is emitted in the same orientation as mex_pairing; its conjugate
    gives the convention where beta counts (r+1)-regular partitions with
    all parts in one residue class.
    """
    return _mex_pairing(lam, i, r, True)


def mex_pairing_colored_inv(pair: PartitionPair, r: int) -> IndexedPartition:
    """Inverse of mex_pairing_colored."""
    if not in_colored_codomain(pair, r):
        raise DomainError(f"pair {pair.to_json()} violates the colored codomain constraints")
    if isinstance(pair.beta, ColoredEmpty):
        lam = pair.alpha.conjugate()
        m, maex = chain_mex_maex(lam, r)
        if maex:
            raise DomainError("colored empty beta requires a gap-bounded preimage")
        return IndexedPartition(lam, m + pair.beta.color - 1)
    return _mex_unpairing(pair, r)


# ---------------------------------------------------------------------------
# Index-to-pair map for the chain-maex sum (CLI name: delta)
# ---------------------------------------------------------------------------

def maex_pairing(lam: Partition, i: int, r: int) -> PartitionPair:
    """Map (lam, i) with 1 <= i <= largest - chain_maex + offset to a pair
    satisfying in_maex_codomain; weight is preserved."""
    _check_r(r)
    top = lam.largest
    maex = chain_mex_maex(lam, r)[1]
    # the class offset (see maex_offset) is r off the gap-bounded class,
    # where the maex is positive, and 1 on it
    _check_index(i, top - maex + (r if maex else 1), lam)
    lp = lam.conjugate()
    cut = top + 2 - i
    alpha, beta, moved = _shift_residues(lp, cut, r, "smallest")
    return PartitionPair(alpha, beta, "cut", (lp, cut, moved, None))


def maex_pairing_inv(pair: PartitionPair, r: int) -> IndexedPartition:
    """Inverse of maex_pairing.  The smallest part of an empty beta counts
    as infinity, so every part of alpha lies below it."""
    if not in_maex_codomain(pair, r):
        raise DomainError(f"pair {pair.to_json()} violates the codomain constraints")
    alpha, beta = pair.alpha, pair.beta
    if beta.is_empty:
        below = alpha.num_parts
    else:
        below, bottom = 0, beta.smallest
        for v, c in reversed(alpha._pairs):
            if v > bottom:
                break
            below += c
    return IndexedPartition(alpha.concat(beta).conjugate(), 1 + below)
