"""Parsing and structural decomposition of RNA secondary structures.

A secondary structure is a sequence plus a pseudoknot-free set of base
pairs.  Structures can be read from dot-bracket or CT text, and decomposed
into their structural elements (helices, hairpin loops, internal loops,
bulges, multiloops and the exterior region), which is the intermediate
form all tree encodings are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


class StructureError(ValueError):
    """Base class for structure parsing/validation failures."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnbalancedBracketsError(StructureError):
    pass


class LengthMismatchError(StructureError):
    pass


class IllegalCharacterError(StructureError):
    pass


class NonCanonicalPairError(StructureError):
    pass


class NonReciprocalPairError(StructureError):
    pass


class PseudoknotDetectedError(StructureError):
    pass


class BadRecordCountError(StructureError):
    pass


CANONICAL_PAIRS = {("A", "U"), ("U", "A"), ("G", "C"), ("C", "G")}
WOBBLE_PAIRS = {("G", "U"), ("U", "G")}

# Pairing policies: 'strict' = canonical only, 'wobble' = canonical + G-U
# (the default), 'any' = no check.
PAIRING_POLICIES = ("strict", "wobble", "any")


@dataclass(frozen=True)
class SecondaryStructure:
    """A validated RNA secondary structure.

    ``pairs`` are 0-based ``(i, j)`` tuples with ``i < j``, sorted by
    opening index, pseudoknot-free.  The sequence is normalized to
    uppercase with T replaced by U.
    """

    sequence: str
    pairs: tuple[tuple[int, int], ...]
    id: str = ""

    def __post_init__(self):
        validate_pairs(self.sequence, self.pairs)

    @property
    def length(self) -> int:
        return len(self.sequence)

    def partner(self) -> list[int]:
        """Pairing table: partner index per base, -1 if unpaired."""
        table = [-1] * len(self.sequence)
        for i, j in self.pairs:
            table[i] = j
            table[j] = i
        return table

    def unpaired(self) -> list[int]:
        table = self.partner()
        return [i for i in range(len(self.sequence)) if table[i] < 0]


def validate_pairs(sequence: str, pairs: Sequence[tuple[int, int]],
                   pairing: str = "any", line: Optional[int] = None) -> None:
    """Check pairing invariants: index sanity, uniqueness, no interleaving.

    With ``pairing`` set to 'strict' or 'wobble' the base identities are
    checked as well; a policy outside ``PAIRING_POLICIES`` is a ValueError.
    """
    if pairing not in PAIRING_POLICIES:
        raise ValueError(f"unknown pairing policy {pairing!r}; "
                         f"expected one of {PAIRING_POLICIES}")
    n = len(sequence)
    seen: set[int] = set()
    for i, j in pairs:
        if not (0 <= i < j < n):
            raise StructureError(f"pair ({i}, {j}) out of range for length {n}", line)
        if i in seen or j in seen:
            raise StructureError(f"base index reused in pair ({i}, {j})", line)
        seen.add(i)
        seen.add(j)
    # Interleaving check: scan openings with a stack of closing positions.
    stack: list[int] = []
    for i, j in sorted(pairs):
        while stack and stack[-1] < i:
            stack.pop()
        if stack and j > stack[-1]:
            raise PseudoknotDetectedError(
                f"pairs interleave: ({i}, {j}) crosses a pair closing at {stack[-1]}", line)
        stack.append(j)
    if pairing != "any":
        allowed = set(CANONICAL_PAIRS)
        if pairing == "wobble":
            allowed |= WOBBLE_PAIRS
        for i, j in pairs:
            if (sequence[i], sequence[j]) not in allowed:
                raise NonCanonicalPairError(
                    f"pair {sequence[i]}{i + 1}-{sequence[j]}{j + 1} not allowed "
                    f"under '{pairing}' pairing", line)


def _normalize_sequence(raw: str, line: Optional[int]) -> str:
    seq = raw.strip().upper().replace("T", "U")
    for ch in seq:
        if ch not in "ACGUN":
            raise IllegalCharacterError(f"illegal sequence character {ch!r}", line)
    return seq


def parse_dotbracket(text: str, pairing: str = "wobble") -> SecondaryStructure:
    """Parse dot-bracket text: optional '>name' line, sequence, structure."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    name = ""
    if lines and lines[0].startswith(">"):
        name = lines[0][1:].strip()
        lines = lines[1:]
    if len(lines) < 2:
        raise StructureError("expected a sequence line and a structure line")
    seq_line_no = 2 if name else 1
    seq = _normalize_sequence(lines[0], seq_line_no)
    struct = lines[1].strip()
    if len(struct) != len(seq):
        raise LengthMismatchError(
            f"structure length {len(struct)} != sequence length {len(seq)}",
            seq_line_no + 1)
    pairs: list[tuple[int, int]] = []
    stack: list[int] = []
    for pos, ch in enumerate(struct):
        if ch == "(":
            stack.append(pos)
        elif ch == ")":
            if not stack:
                raise UnbalancedBracketsError(
                    f"unmatched ')' at column {pos + 1}", seq_line_no + 1)
            pairs.append((stack.pop(), pos))
        elif ch != ".":
            raise IllegalCharacterError(
                f"illegal structure character {ch!r} at column {pos + 1}",
                seq_line_no + 1)
    if stack:
        raise UnbalancedBracketsError(
            f"unmatched '(' at column {stack[-1] + 1}", seq_line_no + 1)
    validate_pairs(seq, pairs, pairing, seq_line_no + 1)
    return SecondaryStructure(seq, tuple(sorted(pairs)), name)


def emit_dotbracket(s: SecondaryStructure) -> str:
    """Render a structure back to dot-bracket text."""
    chars = ["."] * s.length
    for i, j in s.pairs:
        chars[i] = "("
        chars[j] = ")"
    header = f">{s.id}\n" if s.id else ""
    return f"{header}{s.sequence}\n{''.join(chars)}\n"


def parse_ct(text: str, pairing: str = "wobble") -> SecondaryStructure:
    """Parse a 6-column CT pairing table (1-based indices, column 5 = partner)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise StructureError("empty CT input")
    header = lines[0].split()
    try:
        n = int(header[0])
    except (ValueError, IndexError):
        raise StructureError("CT header must start with the sequence length", 1)
    name = " ".join(header[1:]) if len(header) > 1 else ""
    records = lines[1:]
    if len(records) != n:
        raise BadRecordCountError(
            f"header declares {n} bases but found {len(records)} records")
    bases: list[str] = []
    partner = [0] * n
    for row, ln in enumerate(records, start=2):
        cols = ln.split()
        if len(cols) < 6:
            raise BadRecordCountError(f"expected 6 columns, got {len(cols)}", row)
        try:
            idx = int(cols[0])
            pair_col = int(cols[4])
        except ValueError:
            raise StructureError(f"non-numeric index field in {ln!r}", row)
        if idx != row - 1:
            raise StructureError(f"record index {idx} out of order", row)
        if not (0 <= pair_col <= n):
            raise StructureError(f"pairing partner {pair_col} out of range", row)
        bases.append(cols[1])
        partner[idx - 1] = pair_col
    seq = _normalize_sequence("".join(bases), None)
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        j = partner[i] - 1
        if j < 0:
            continue
        if partner[j] != i + 1:
            raise NonReciprocalPairError(
                f"row {i + 1} pairs with {j + 1} but row {j + 1} points to {partner[j]}",
                i + 2)
        if i < j:
            pairs.append((i, j))
    validate_pairs(seq, pairs, pairing)
    return SecondaryStructure(seq, tuple(pairs), name)


def emit_ct(s: SecondaryStructure) -> str:
    """Render a structure as CT text."""
    table = s.partner()
    out = [f"{s.length} {s.id}".rstrip()]
    for i, base in enumerate(s.sequence):
        out.append(f"{i + 1} {base} {i} {i + 2} {table[i] + 1} {i + 1}")
    return "\n".join(out) + "\n"


class ElementKind(Enum):
    HELIX = "helix"
    HAIRPIN = "hairpin"
    INTERNAL = "internal"
    BULGE = "bulge"
    MULTILOOP = "multiloop"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class StructureElement:
    """One structural element: its kind, member bases and size."""

    kind: ElementKind
    index: int
    bases: tuple[int, ...]
    # helix: (stacked pair count,); hairpin/bulge: (unpaired count,);
    # internal: (left, right); multiloop/exterior: per-gap unpaired counts.
    sizes: tuple[int, ...]
    # helices only: the run of pairs outermost-first.
    pairs: tuple[tuple[int, int], ...] = ()


@dataclass
class ElementGraph:
    """Element-level tree of a structure: loops linked by helices.

    ``children[e]`` lists, 5'-to-3', the ``(helix_index, inner_element_index)``
    links hanging below a loop element ``e``. The root is the exterior region.
    """

    structure: SecondaryStructure
    elements: list[StructureElement]
    children: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    root: int = 0

    def element_of_base(self) -> list[int]:
        owner = [-1] * self.structure.length
        for el in self.elements:
            for b in el.bases:
                owner[b] = el.index
        return owner


def _helices(s: SecondaryStructure) -> list[list[tuple[int, int]]]:
    """Maximal stacked runs of pairs, ordered by opening index."""
    pair_set = set(s.pairs)
    runs = []
    for i, j in sorted(s.pairs):
        if (i - 1, j + 1) in pair_set:
            continue  # not the outermost pair of its run
        run = [(i, j)]
        while (run[-1][0] + 1, run[-1][1] - 1) in pair_set:
            run.append((run[-1][0] + 1, run[-1][1] - 1))
        runs.append(run)
    return runs


def decompose(s: SecondaryStructure) -> ElementGraph:
    """Partition a structure into elements and link them into a tree."""
    helix_runs = _helices(s)
    table = s.partner()
    elements: list[StructureElement] = []
    children: dict[int, list[tuple[int, int]]] = {}

    helix_by_outer: dict[int, int] = {}
    # Element 0 is reserved for the exterior region; helices come next.
    for eid, run in enumerate(helix_runs, start=1):
        bases = tuple(sorted([b for p in run for b in p]))
        elements.append(StructureElement(
            ElementKind.HELIX, eid, bases, (len(run),), tuple(run)))
        helix_by_outer[run[0][0]] = eid

    def scan_region(lo: int, hi: int) -> tuple[list[int], list[int], list[int]]:
        """Split [lo, hi] into unpaired gaps and child helix openings.

        Returns (gap sizes, unpaired bases, child helix element ids); gaps
        has one entry per slot around the child helices.
        """
        gaps: list[int] = []
        unpaired: list[int] = []
        kids: list[int] = []
        run = 0
        pos = lo
        while pos <= hi:
            if table[pos] < 0:
                run += 1
                unpaired.append(pos)
                pos += 1
            else:
                gaps.append(run)
                run = 0
                kids.append(helix_by_outer[pos])
                pos = table[pos] + 1
        gaps.append(run)
        return gaps, unpaired, kids

    ext_gaps, ext_unpaired, top_kids = scan_region(0, s.length - 1)
    children[0] = []
    # (helix, loop it hangs below), popped in preorder so that loop ids
    # are preorder numbers with siblings 5'-to-3'.
    stack = [(h, 0) for h in reversed(top_kids)]
    while stack:
        helix, parent = stack.pop()
        inner_i, inner_j = elements[helix - 1].pairs[-1]
        gaps, unpaired, kids = scan_region(inner_i + 1, inner_j - 1)
        if not kids:
            kind, sizes = ElementKind.HAIRPIN, (len(unpaired),)
        elif len(kids) == 1:
            left, right = gaps[0], gaps[1]
            if left and right:
                kind, sizes = ElementKind.INTERNAL, (left, right)
            else:
                kind, sizes = ElementKind.BULGE, (left, right)
        else:
            kind, sizes = ElementKind.MULTILOOP, tuple(gaps)
        eid = len(elements) + 1
        elements.append(StructureElement(kind, eid, tuple(unpaired), sizes))
        children[parent].append((helix, eid))
        children[eid] = []
        stack.extend((h, eid) for h in reversed(kids))
    elements.insert(0, StructureElement(ElementKind.EXTERIOR, 0, tuple(ext_unpaired),
                                        tuple(ext_gaps)))
    # Element ids equal list positions: exterior 0, helices, then loops.
    return ElementGraph(s, elements, children, root=0)
