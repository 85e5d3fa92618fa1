"""Seeded RNA-family generator for the benchmark (standard library only).

An ancestor is built from stacked helices of 3-12 bp, hairpins of at
least 3 nt, internal loops, bulges and multiloops.  Family members are
derived from it by the situations that motivate fusion in the paper and
in Allali & Sagot (IEEE/ACM TCBB 2005):

- a helix interrupted by a bulge or an internal loop;
- a loop split in two by a 1-2 bp helix;
- a helix shortened or extended;
- a loop grown or shrunk.

Members inherit the ancestor's bases, so related structures also share
most of their sequence.  The output is plain dot-bracket or CT text; the
generator never imports the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

_PAIRS = [("G", "C"), ("C", "G"), ("A", "U"), ("U", "A"), ("G", "U"), ("U", "G")]
_BASES = "ACGU"


@dataclass
class Helix:
    """Stacked pairs, outermost first, closing ``loop``."""

    pairs: list[tuple[str, str]]
    loop: list = field(default_factory=list)  # str runs and Helix children


def _pairs(rng: random.Random, n: int) -> list[tuple[str, str]]:
    return [rng.choice(_PAIRS) for _ in range(n)]


def _run(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_BASES) for _ in range(n))


def _loop(rng: random.Random, budget: int) -> list:
    """Inside of a helix: hairpin, bulge, internal loop or multiloop."""
    if budget < 16:
        return [_run(rng, max(3, min(budget, 8)))]
    roll = rng.random()
    if roll < 0.25 or budget < 30:
        # bulge or internal loop closing one child helix
        left = rng.randint(1, 4)
        right = 0 if rng.random() < 0.4 else rng.randint(1, 4)
        return [_run(rng, left), _helix(rng, budget - left - right), _run(rng, right)]
    if roll < 0.6:
        left, right = rng.randint(1, 3), rng.randint(1, 3)
        return [_run(rng, left), _helix(rng, budget - left - right), _run(rng, right)]
    kids = 2 if budget < 60 else rng.choice((2, 3))
    gaps = [rng.randint(1, 4) for _ in range(kids + 1)]
    share = (budget - sum(gaps)) // kids
    out: list = [_run(rng, gaps[0])]
    for k in range(kids):
        out += [_helix(rng, share), _run(rng, gaps[k + 1])]
    return out


def _helix(rng: random.Random, budget: int) -> Helix:
    bp = rng.randint(3, max(3, min(12, (budget - 3) // 3)))
    return Helix(_pairs(rng, bp), _loop(rng, budget - 2 * bp))


def ancestor(rng: random.Random, length: int) -> list:
    """Exterior loop of an ancestor of exactly ``length`` nt.

    The helices get a little less room than the length allows, and the 3'
    tail is padded to the exact length, so the size of the work a family
    brings depends on the length schedule rather than on the seed.
    """
    kids = 1 if length < 90 else 2
    while True:
        gaps = [rng.randint(2, 6) for _ in range(kids + 1)]
        share = (length - sum(gaps) - 8) // kids
        out: list = [_run(rng, gaps[0])]
        for k in range(kids):
            out += [_helix(rng, share), _run(rng, gaps[k + 1])]
        short = length - len(render(out)[0])
        if short >= 0:
            out[-1] += _run(rng, short)
            return out


# ---------------------------------------------------------------------------
# Mutations: each rewrites one site of a copied structure in place.


def _copy(loop: list) -> list:
    return [item if isinstance(item, str) else Helix(list(item.pairs), _copy(item.loop))
            for item in loop]


def _helices(loop: list) -> list[Helix]:
    out = []
    for item in loop:
        if isinstance(item, Helix):
            out.append(item)
            out += _helices(item.loop)
    return out


def _loops(exterior: list) -> list[list]:
    return [h.loop for h in _helices(exterior)]


def _interrupt_helix(rng: random.Random, ext: list) -> bool:
    """Helix of >= 4 bp split by a bulge or an internal loop."""
    sites = [h for h in _helices(ext) if len(h.pairs) >= 4]
    if not sites:
        return False
    h = rng.choice(sites)
    k = rng.randint(2, len(h.pairs) - 2)
    inner = Helix(h.pairs[k:], h.loop)
    left = rng.randint(1, 3)
    right = 0 if rng.random() < 0.5 else rng.randint(1, 3)
    h.pairs = h.pairs[:k]
    h.loop = [_run(rng, left), inner, _run(rng, right)]
    return True


def _split_loop(rng: random.Random, ext: list) -> bool:
    """Loop split in two by a 1-2 bp helix.

    The tiny helix encloses the loop's contents, leaving a few of its
    outer unpaired bases outside: a hairpin becomes an internal loop over
    a shorter hairpin, an internal loop or multiloop becomes an internal
    loop (or bulge) over the rest of the original loop.
    """
    sites = [loop for loop in _loops(ext)
             if (len(loop) == 1 and len(loop[0]) >= 7)
             or (len(loop) > 1 and len(loop[0]) + len(loop[-1]) >= 2)]
    if not sites:
        return False
    loop = rng.choice(sites)
    tiny = _pairs(rng, rng.randint(1, 2))
    if len(loop) == 1:
        run = loop[0]
        a = rng.randint(1, len(run) - 6)
        b = rng.randint(a + 3, len(run) - 1)
        loop[:] = [run[:a], Helix(tiny, [run[a:b]]), run[b:]]
        return True
    first, last = loop[0], loop[-1]
    while True:
        a = rng.randint(0, len(first))
        c = rng.randint(0, len(last))
        if a + c >= 2:
            break
    inner = [first[a:]] + loop[1:-1] + [last[:len(last) - c]]
    loop[:] = [first[:a], Helix(tiny, inner), last[len(last) - c:]]
    return True


def _resize_helix(rng: random.Random, ext: list) -> bool:
    """Helix shortened or extended by 1-3 bp at its inner end."""
    h = rng.choice(_helices(ext))
    delta = rng.randint(1, 3)
    if len(h.pairs) - delta >= 3 and rng.random() < 0.5:
        del h.pairs[-delta:]
    elif len(h.pairs) + delta <= 12:
        h.pairs += _pairs(rng, delta)
    else:
        return False
    return True


def _resize_loop(rng: random.Random, ext: list) -> bool:
    """Unpaired run grown or shrunk by 1-3 nt; hairpins keep >= 3 nt."""
    sites = [(loop, i) for loop in _loops(ext) for i, item in enumerate(loop)
             if isinstance(item, str)]
    loop, i = rng.choice(sites)
    run = loop[i]
    delta = rng.randint(1, 3)
    floor = 3 if len(loop) == 1 else (1 if run else 0)
    if len(run) - delta >= floor and rng.random() < 0.5:
        pos = rng.randint(0, len(run) - delta)
        loop[i] = run[:pos] + run[pos + delta:]
    else:
        pos = rng.randint(0, len(run))
        loop[i] = run[:pos] + _run(rng, delta) + run[pos:]
    return True


MUTATIONS = (_interrupt_helix, _split_loop, _resize_helix, _resize_loop)


def member(rng: random.Random, ext: list, mutations: int) -> list:
    """A family member: ``mutations`` applied, each kind at least once in turn."""
    out = _copy(ext)
    done = 0
    while done < mutations:
        if MUTATIONS[done % len(MUTATIONS)](rng, out):
            done += 1
        elif MUTATIONS[-1](rng, out):
            done += 1
    return out


# ---------------------------------------------------------------------------
# Rendering


def render(ext: list) -> tuple[str, str]:
    """Sequence and dot-bracket string of an exterior loop."""
    seq: list[str] = []
    db: list[str] = []
    stack: list = [("loop", ext)]
    while stack:
        kind, item = stack.pop()
        if kind == "loop":
            for part in reversed(item):
                stack.append(("run", part) if isinstance(part, str) else ("helix", part))
        elif kind == "run":
            seq.append(item)
            db.append("." * len(item))
        elif kind == "helix":
            seq.append("".join(p[0] for p in item.pairs))
            db.append("(" * len(item.pairs))
            stack.append(("close", item))
            stack.append(("loop", item.loop))
        else:
            seq.append("".join(p[1] for p in reversed(item.pairs)))
            db.append(")" * len(item.pairs))
    return "".join(seq), "".join(db)


def dotbracket_text(name: str, ext: list) -> str:
    seq, db = render(ext)
    return f">{name}\n{seq}\n{db}\n"


def ct_text(name: str, ext: list) -> str:
    seq, db = render(ext)
    partner = [0] * len(seq)
    opened: list[int] = []
    for pos, ch in enumerate(db):
        if ch == "(":
            opened.append(pos)
        elif ch == ")":
            i = opened.pop()
            partner[i], partner[pos] = pos + 1, i + 1
    rows = [f"{len(seq)} {name}"]
    rows += [f"{k + 1} {base} {k} {k + 2} {partner[k]} {k + 1}"
             for k, base in enumerate(seq)]
    return "\n".join(rows) + "\n"


def family(rng: random.Random, length: int, size: int, mutations: int) -> list[list]:
    """``size`` members of one family, all derived from one ancestor."""
    root = ancestor(rng, length)
    return [member(rng, root, mutations) for _ in range(size)]
