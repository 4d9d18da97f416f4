"""Ranking and relevance-judgment I/O plus synthetic topic generation.

File formats (TREC conventions, whitespace separated, UTF-8, one record
per line, blank and ``#``-prefixed comment lines skipped):

  qrels: ``topic iteration docid relevance``   (iteration ignored;
         graded relevance collapses to binary: value > 0 means relevant)
  run:   ``topic Q0 docid rank score tag``     (Q0 and tag ignored; the
         score is checked to be numeric but not kept)

Both parsers take the whole text or any iterable of its lines (for
example a file read lazily), so a caller need not hold the text at all.
One record reader, ``_Records``, owns the line structure and the
duplicate check; the parsers keep their field conversions and output.
Labelling reads only which documents are relevant, so parsed qrels map
each topic to the frozenset of its relevant doc ids; judged non-relevant
ids are checked for duplicates and then dropped. The run is parsed after
the qrels and labelled line by line as it streams in: each topic becomes
a ``RankedTopic`` of labels in rank order, so ranks are implicit and
dense. No doc id outlives the duplicate check, and a topic's rank fields
are stored only once they stop counting 1, 2, 3, .... That check keeps a
topic's ids as space-joined strings of ``_BATCH`` ids, about a byte a
character where a set of them takes about 100 bytes an id, and checks
each topic once, when the parse ends: with a set under ``_BATCH`` ids,
else by sorting their 64-bit hashes. Documents present in a run but
absent from the qrels, or judged non-relevant, are labelled non-relevant,
the standard pooling assumption. A ``SyntheticSpec`` checks its fields'
types as well as their ranges.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from itertools import chain, islice
from numbers import Real
from operator import le

import numpy as np

from .errors import DuplicateEntryError, ParseError, ValidationError, is_integer
from .rates import RateKind, RateParams, rate_value

SYNTHETIC_KINDS = (*(kind.value for kind in RateKind), "uniform")
# Largest synthetic topic: generation peaks at about 24 bytes per document
# (23 MiB measured at n = 1,000,000), so about 0.25 GiB at this size.
MAX_SYNTHETIC_N = 10_000_000


@dataclass(frozen=True, eq=False)
class RankedTopic:
    """One topic's ranking joined with binary labels, indexed by rank.

    The topic also caches the rate curves fitted to its screened prefixes
    and the NRMSE floors that spare some of those fits (see
    ``stopping.run_stopping``), so every run over it fits each checkpoint
    at most once. Since each topic owns its caches, topics compare and
    hash by identity: two topics with equal labels are distinct.
    """

    topic_id: str
    labels: np.ndarray  # bool, shape (n,); labels[r-1] is the label at rank r
    # (rate kind, window size, checkpoint) -> fitted curve, or the error raised
    _fits: dict = field(default_factory=dict, init=False, repr=False)
    # window size -> the tables of ``stopping._nrmse_floor``
    _floors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=bool).copy()
        labels.flags.writeable = False  # the cached fits assume fixed labels
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size < 1:
            raise ValidationError(
                f"topic {self.topic_id!r}: labels must be a non-empty 1-d sequence"
            )

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def total_relevant(self) -> int:
        return int(self.labels.sum())

    def relevant_in_prefix(self, k: int) -> int:
        """Count of relevant documents at ranks 1..k."""
        return int(self.labels[:k].sum())


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic topic.

    ``kind`` selects the shape of the relevance probability over ranks;
    ``params`` supplies its a/b/c values (``uniform`` uses only ``a``,
    ``ap_prior`` uses ``a`` with the normalizer taken over ``n``); the
    other kinds are the ``rates.RateKind`` families, whose parameters and
    constraints come from their records in the family table.
    A param that ``kind`` does not read is refused.
    ``noise`` flips each label independently with the given probability.
    ``n`` must lie in [1, MAX_SYNTHETIC_N]. Types are checked first: ``n``
    and ``seed`` are integers, the params and ``noise`` numbers, kept as floats.
    """

    n: int
    kind: str
    params: dict[str, float]
    seed: int
    noise: float = 0.0
    topic_id: str = ""
    # the curve labels are drawn from; None for ``uniform``
    _rate: RateParams | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.params, Mapping):
            raise ValidationError("field 'params' must be an object")
        for key in ("n", "seed"):
            if not is_integer(value := getattr(self, key)):
                raise ValidationError(f"field {key!r} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if not isinstance(self.topic_id, str):
            raise ValidationError(f"field 'topic_id' must be a string, got {self.topic_id!r}")
        params = {key: _real(value, f"params.{key}") for key, value in self.params.items()}
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "noise", _real(self.noise, "noise"))
        if not 1 <= self.n <= MAX_SYNTHETIC_N:
            raise ValidationError(
                f"synthetic n must be in [1, {MAX_SYNTHETIC_N}], got {self.n}"
            )
        if self.kind not in SYNTHETIC_KINDS:
            raise ValidationError(
                f"unknown synthetic kind {self.kind!r}; expected one of {SYNTHETIC_KINDS}"
            )
        reads = ("a",) if self.kind == "uniform" else tuple(RateKind(self.kind).family.params)
        unread = [key for key in params if key not in reads]
        if unread:
            raise ValidationError(
                f"field 'params.{unread[0]}' is not a parameter of kind {self.kind!r}, "
                f"which reads {', '.join(reads)}"
            )
        if self.seed < 0:
            raise ValidationError(f"synthetic seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise < 0.5:
            raise ValidationError(f"noise must be in [0, 0.5), got {self.noise}")
        a = params.get("a")
        if a is None or not a >= 0:
            raise ValidationError(f"synthetic params require a >= 0, got {a}")
        if self.kind != "uniform":
            kind = RateKind(self.kind)
            values = [params.get(key) for key in kind.family.params]
            object.__setattr__(self, "_rate", RateParams.from_values(kind, values, self.n))


def _real(value, key: str) -> float:
    """A spec field's real number (numpy's too, but no bool) as a float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ValidationError(f"field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"field {key!r} is out of range") from None


# Ids a topic holds in a list before it joins them into one string (see
# ``_Records``); a topic of fewer is checked with a set.
_BATCH = 4096


class _Ids:
    """One topic's doc ids in file order, as ``_Records`` keeps them."""

    __slots__ = ("pending", "strings", "positions", "lines")

    def __init__(self):
        from array import array  # loaded by the commands that parse only

        self.pending: list[str] = []  # the latest ids, fewer than _BATCH
        self.strings: list[str] = []  # the earlier ones, _BATCH a space-joined string
        # per block of the topic's consecutive lines: the position of its
        # first id among the topic's ids, and its first line
        self.positions = array("q")
        self.lines = array("q")

    def first_repeat(self, size: int) -> tuple[int, str] | None:
        """The line and id of the first id that repeats an earlier one, or None."""
        strings, pending = self.strings, self.pending

        def every():
            return chain(chain.from_iterable(s.split(" ") for s in strings), pending)

        suspects = None  # under ``size`` ids, every id is checked exactly
        if strings:
            count = len(strings) * size + len(pending)
            hashes = np.fromiter(map(hash, every()), np.int64, count)
            hashes.sort()
            suspects = set()
            for i in range(1, count, size):  # equal neighbours, with no mask of length count
                later = hashes[i:i + size]
                suspects.update(later[later == hashes[i - 1:i - 1 + later.size]].tolist())
            if not suspects:
                return None
        elif len(set(pending)) == len(pending):
            return None
        seen = set()
        for position, doc_id in enumerate(every()):
            if suspects is None or hash(doc_id) in suspects:
                if doc_id in seen:
                    from bisect import bisect_right

                    block = bisect_right(self.positions, position) - 1
                    return self.lines[block] + position - self.positions[block], doc_id
                seen.add(doc_id)
        return None  # only hashes collided


class _Records:
    """The records of a run or qrels file, for both parsers, and the
    duplicate check of their doc ids.

    Iterating yields each record's fields, skipping blank and comment
    lines and checking the count of ``names``, the format's field names;
    ``line`` is the record's line. A record's doc id (field 2) is kept once
    the parser asks for the next record, so the parser's error on a line
    wins over that line's repeat. A topic's ids are kept in blocks of
    consecutive lines, which start on each change of topic and after each
    skipped line, so each id's line follows from its block's first line.
    Every ``_BATCH`` ids of a topic are joined into one space-joined string
    (an id holds no whitespace): about a byte a character, where a set
    takes about 100 bytes an id.

    Used as a context manager, it checks every topic when the parse ends,
    and before any parse error on a line leaves it, and raises the
    duplicate on the smallest line. Each id comes before the error's line,
    so the first duplicate wins over any later error. A topic of fewer
    than ``_BATCH`` ids is checked with a set. A larger one is hashed once
    into an int64 array, sorted in place, and only the ids whose hashes
    are equal go to an exact check, so a collision of two different ids
    is no error.
    """

    def __init__(self, source: str | Iterable[str], names: str, message):
        self._lines = source.splitlines() if isinstance(source, str) else source
        self._names = names
        self._message = message  # (topic, doc_id) -> the duplicate error's text
        self._topics: dict[str, _Ids] = {}
        self._size = _BATCH
        self.line = 0

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        # an error of the source itself names no line and wins as it stands
        if exc is not None and not (isinstance(exc, ParseError) and exc.line is not None):
            return
        repeats = [(*repeat, topic) for topic, ids in self._topics.items()
                   if (repeat := ids.first_repeat(self._size))]
        if repeats:
            line, doc_id, topic = min(repeats)
            raise DuplicateEntryError(self._message(topic, doc_id), line) from None

    def __iter__(self):
        count = len(self._names.split())
        topics, size = self._topics, self._size
        current = None  # the topic of the current block; None after a skipped line
        for self.line, raw in enumerate(self._lines, start=1):
            parts = raw.split()
            if not parts or parts[0][0] == "#":  # split() yields no empty field
                current = None
                continue
            if len(parts) != count:
                raise ParseError(
                    f"expected {count} fields '{self._names}', got {len(parts)}", self.line
                )
            if parts[0] != current:
                current = parts[0]
                ids = topics.get(current)
                if ids is None:
                    ids = topics[current] = _Ids()
                pending = ids.pending
                ids.positions.append(len(ids.strings) * size + len(pending))
                ids.lines.append(self.line)
            yield parts
            pending.append(parts[2])
            if len(pending) == size:
                ids.strings.append(" ".join(pending))
                pending.clear()


def parse_qrels(source: str | Iterable[str]) -> dict[str, frozenset[str]]:
    """Parse qrels, given as text or as its lines, into the relevant doc
    ids of each judged topic, ``{topic_id: frozenset(doc ids)}``, in order
    of the topics' first lines. A topic whose every judgment is 0 or less
    maps to an empty set.

    Raises ParseError for malformed lines (naming the line number) and
    DuplicateEntryError for repeated (topic, doc) keys, whatever their
    relevance.
    """
    relevant: dict[str, list[str]] = {}
    current = None
    records = _Records(source, "topic iter docid rel",
                       lambda topic, doc_id: f"duplicate qrels entry for {(topic, doc_id)}")
    with records:
        for topic, _iter, doc_id, rel_str in records:
            try:
                rel = int(rel_str)
            except ValueError:
                raise ParseError(
                    f"relevance {rel_str!r} is not an integer", records.line
                ) from None
            if topic != current:  # qrels list a topic's lines together
                current = topic
                found = relevant.setdefault(topic, [])
            if rel > 0:
                found.append(doc_id)
    return {topic: frozenset(found) for topic, found in relevant.items()}


def parse_run(
    source: str | Iterable[str], qrels: Mapping[str, AbstractSet[str]]
) -> list[RankedTopic]:
    """Parse a TREC run, given as text or as its lines, and label it with
    the relevant doc ids of each topic, as ``parse_qrels`` returns them:
    one topic per run topic, sorted by topic id, whose ``labels[r - 1]``
    is the label of the document at dense rank r.

    Lines of a topic are ordered by their rank field; lines with equal
    ranks keep their file order. Each line is labelled as it is read, so
    no doc id is held beyond the duplicate check. While a topic's ranks
    are 1, 2, 3, ... in file order they are not stored at all.

    Raises TypeError for qrels that map a topic to anything but a set,
    such as a ``{doc_id: 0|1}`` dict, in which judged non-relevant ids
    would read as relevant.
    """
    from array import array  # loaded by the commands that parse a run only

    for topic, relevant in qrels.items():
        if not isinstance(relevant, AbstractSet):
            raise TypeError(
                "qrels must map each topic to its set of relevant doc ids, as "
                f"parse_qrels returns; topic {topic!r} maps to a "
                f"{type(relevant).__name__}"
            )
    # topic -> (labels in file order, one byte each; ranks in file order, or
    # None while they are 1, 2, 3, ...). Ranks are 64-bit machine integers
    # unless a topic has one beyond that range.
    by_topic: dict[str, tuple] = {}
    current = None
    records = _Records(source, "topic Q0 docid rank score tag",
                       lambda topic, doc_id: f"doc {doc_id!r} listed twice for topic {topic!r}")
    with records:
        for topic, _q0, doc_id, rank_str, score_str, _tag in records:
            try:
                rank = int(rank_str)
            except ValueError:
                raise ParseError(f"rank {rank_str!r} is not an integer", records.line) from None
            try:
                float(score_str)
            except ValueError:
                raise ParseError(f"score {score_str!r} is not numeric", records.line) from None
            if topic != current:  # runs list a topic's lines together
                current = topic
                labels, ranks = by_topic.setdefault(topic, (bytearray(), None))
                relevant = qrels.get(topic, ())
            labels.append(doc_id in relevant)
            if ranks is None:
                if rank == len(labels):  # still implicit
                    continue
                ranks = array("q", range(1, len(labels)))  # the implicit ranks so far
                by_topic[topic] = (labels, ranks)
            try:
                ranks.append(rank)
            except OverflowError:
                ranks = [*ranks, rank]
                by_topic[topic] = (labels, ranks)

    topics = []
    for topic in sorted(by_topic):
        labels, ranks = by_topic[topic]
        labels = np.frombuffer(labels, dtype=bool)
        if ranks is not None and not all(map(le, ranks, islice(ranks, 1, None))):
            order = sorted(range(len(ranks)), key=ranks.__getitem__)  # stable on ties
            labels = labels[order]
        topics.append(RankedTopic(topic, labels))
    return topics


def generate_synthetic(spec: SyntheticSpec) -> RankedTopic:
    """Draw a labelled topic whose relevance follows the spec's rate shape.

    Labels at rank x are independent Bernoulli(min(1, rate(x))) draws,
    then flipped with probability ``noise``. The Philox counter-based
    generator makes output identical for identical (spec, seed) across
    platforms and thread counts.
    """
    if spec._rate is None:
        lam = np.full(spec.n, spec.params["a"], dtype=float)
    else:
        # an extreme but valid b or c overflows b * x or b * c * x to inf,
        # whose rate is the right limit, 0
        with np.errstate(over="ignore"):
            lam = rate_value(spec._rate, np.arange(1, spec.n + 1, dtype=float))
    probs = np.clip(lam, 0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    labels = rng.random(spec.n) < probs
    if spec.noise > 0.0:
        flips = rng.random(spec.n) < spec.noise
        labels = labels ^ flips
    topic_id = spec.topic_id or f"synthetic-{spec.kind}-{spec.seed}"
    return RankedTopic(topic_id, labels)
