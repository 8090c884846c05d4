"""Seeded generator of labelled maniplang programs for the program_stream workload.

Programs are built from the vocabulary's word signatures by this module's
own rules; the type checker is never consulted. Every program carries the
outcome its construction implies: accepted (and evaluable) or rejected with
a named error class. Broken programs are valid ones with exactly one
injected defect, so the defect alone decides the verdict.

Why this mix (fractions of the stream). The split between accepted and
rejected programs follows the one loop the repository ships: the mock
translations of the five mock tasks give eight programs to validate (four
cost programs, the bare ``gripper_open()`` stage of the cube lift, and three
rejected ``fly_to('moon')`` candidates of the kraken task). The rest is a
coverage choice with no traffic behind it:

* 50% valid cost programs and 12.5% bare gripper actions, as in the
  shipped programs (4 and 1 of 8). Valid programs are the only ones that
  reach ``costs`` and ``retrieval``.
* 37.5% broken (3 of 8). The shipped rejections are all unknown words; the
  stream spreads them evenly over the six rejection paths the language front
  end tells apart (unknown word, bad arity, sort mismatch, lexical error,
  syntax error, history word on a scene with no history), so that each path
  runs hundreds of times in a ten-second run. That spread is coverage.
* One valid cost program in four reads the scene's history, as one of the
  four shipped cost programs does (``move_cost_with_offset``).
* The shipped programs name every part exactly. The stream paraphrases a
  name, where the part database has paraphrases of the part, with
  probability one half and at most twice per program, so that ``retrieval``
  runs at all; about one valid program in four needs it. The number of cost
  terms per program (one to three; the shipped ones have one or two) and the
  shapes of the arguments are coverage choices as well.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VALID = "valid"
UNKNOWN_WORD = "unknown_word"
BAD_ARITY = "bad_arity"
SORT_MISMATCH = "sort_mismatch"
LEXICAL = "lexical"
SYNTAX = "syntax"
NO_HISTORY = "no_history"

VOID = "void"  # a bare gripper action; labelled VALID in the stream

# Programs of each kind in every block of 80. Blocks are shuffled, and
# scenes are dealt evenly within a block, so any stretch of the stream
# holds the same mix: a run's figures do not hinge on how the draws fell.
BLOCK = (
    (VALID, 40),
    (VOID, 10),
    (UNKNOWN_WORD, 5),
    (BAD_ARITY, 5),
    (SORT_MISMATCH, 5),
    (LEXICAL, 5),
    (SYNTAX, 5),
    (NO_HISTORY, 5),
)
BLOCK_SIZE = sum(count for _, count in BLOCK)
HISTORY_PROBABILITY = 0.25  # share of valid cost programs that read history
PARAPHRASE_PROBABILITY = 0.5
# Each paraphrase costs a part-database search, by far the dearest step of
# an operation; capping them per program keeps the latency tail a plateau
# of two-search programs instead of a rare extreme that moves with the seed.
MAX_PARAPHRASES = 2

# Expected exception class name per defect label.
EXPECTED_ERROR = {
    UNKNOWN_WORD: "UnknownWordError",
    BAD_ARITY: "ArgumentError",
    SORT_MISMATCH: "TypeCheckError",
    LEXICAL: "ParseError",
    SYNTAX: "ParseError",
    NO_HISTORY: "EmptyHistoryError",
}
LEXICAL_MESSAGES = ("unexpected character", "unterminated string")

GRIPPER = "gripper"
# Words that read the scene's history snapshots; their part names must be exact.
HISTORY_WORDS = frozenset({"centroid_last", "move_cost_with_offset"})
# Words whose part argument must resolve to a point cloud (not the gripper).
CLOUD_WORDS = frozenset({"get_axis", "get_height", "get_width", "get_length"})
# Cost words whose vec arguments must be non-zero directions.
ALIGNMENT_WORDS = frozenset({"parallel_cost", "perpendicular_cost", "rotate_cost"})
# Words whose two string arguments must name different parts.
DISTINCT_PAIR_WORDS = frozenset({"direction_of", "upright_cost"})
HALLUCINATED_WORDS = (
    "get_orientation", "grasp", "fly_to", "get_centre", "move_to",
    "pick_up", "align_cost", "get_normal", "push_cost", "rotate",
)
ILLEGAL_CHARACTERS = "@$!?;&%"


@dataclass(frozen=True)
class Program:
    """One generated program with the outcome its construction implies."""

    source: str
    scene: str  # key of the scene the program is evaluated on
    label: str
    verdict: str  # "accepted" or "rejected"
    error: str | None  # expected exception class name, None when it evaluates cleanly
    sort: str | None  # result sort of an accepted program
    exact_source: str | None  # same program with every paraphrase replaced by its exact name


@dataclass(frozen=True)
class Signature:
    name: str
    params: tuple[tuple[str, str, bool], ...]  # (name, sort, required)
    result: str


def signatures_from_vocabulary(vocab) -> tuple[Signature, ...]:
    """Word signatures read from a maniplang Vocabulary, aliases included."""
    by_name = {w.name: w for w in vocab.words}
    sigs = []
    for word in vocab.words:
        canonical = by_name[word.alias_of] if word.alias_of else word
        sigs.append(
            Signature(
                word.name,
                tuple((p.name, p.sort, p.required) for p in canonical.params),
                canonical.result_sort,
            )
        )
    return tuple(sigs)


def edit_distance(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def paraphrase_table(
    scene_parts: dict[str, tuple[str, ...]], key_phrases: list[list[str]]
) -> dict[str, dict[str, tuple[str, ...]]]:
    """scene key -> exact part -> phrases that should resolve to that part.

    A part has paraphrases when it is the canonical (first) phrase of a
    database entry. Its paraphrases are the entry's other phrases; typos of
    any entry phrase are drawn at generation time.
    """
    table: dict[str, dict[str, tuple[str, ...]]] = {}
    for scene, parts in scene_parts.items():
        table[scene] = {
            phrases[0]: tuple(phrases[1:])
            for phrases in key_phrases
            if phrases[0] in parts
        }
    return table


class _Node:
    """Program tree node; `sort` is what this generator built it to be."""

    __slots__ = ("kind", "sort", "word", "args", "kwargs", "value", "shown")

    def __init__(self, kind, sort, word=None, args=(), kwargs=(), value=None, shown=None):
        self.kind = kind  # "call", "name", "num", "triple", "bin"
        self.sort = sort
        self.word = word  # call word, or the operator of a "bin"
        self.args = list(args)
        self.kwargs = list(kwargs)
        self.value = value  # exact part name or number
        self.shown = shown  # the phrase rendered in place of an exact part name

    def walk(self):
        yield self
        for child in self.args:
            yield from child.walk()
        for _, child in self.kwargs:
            yield from child.walk()


def render(node: _Node, exact: bool = False) -> str:
    if node.kind == "name":
        return "'" + (node.value if exact or node.shown is None else node.shown) + "'"
    if node.kind == "num":
        return repr(node.value)
    if node.kind == "triple":
        return "[" + ", ".join(render(a, exact) for a in node.args) + "]"
    if node.kind == "bin":
        return f"{render(node.args[0], exact)} {node.word} {render(node.args[1], exact)}"
    parts = [render(a, exact) for a in node.args]
    parts += [f"{k}={render(v, exact)}" for k, v in node.kwargs]
    return f"{node.word}({', '.join(parts)})"


def _string_spans(source: str) -> list[tuple[int, int]]:
    spans = []
    i = 0
    while i < len(source):
        if source[i] in "'\"":
            j = source.index(source[i], i + 1)
            spans.append((i, j))
            i = j + 1
        else:
            i += 1
    return spans


class ProgramGenerator:
    """Endless, seeded stream of labelled programs.

    `scene_parts` maps each shipped scene key to its part names;
    `history_scene` maps a shipped scene key to the key of the same scene
    with one recorded history snapshot. `key_phrases` are the part
    database's entries.
    """

    def __init__(
        self,
        signatures: tuple[Signature, ...],
        scene_parts: dict[str, tuple[str, ...]],
        history_scene: dict[str, str],
        key_phrases: list[list[str]],
        seed: int,
    ):
        self.rng = random.Random(seed)
        self.sigs = {s.name: s for s in signatures}
        self.vocab_names = frozenset(self.sigs)
        self.scene_parts = scene_parts
        self.history_scene = history_scene
        self.paraphrases = paraphrase_table(scene_parts, key_phrases)
        self.key_phrases = key_phrases
        self.scenes = tuple(sorted(scene_parts))
        self.by_result: dict[str, list[str]] = {}
        for sig in signatures:
            self.by_result.setdefault(sig.result, []).append(sig.name)
        self.hallucinated = tuple(w for w in HALLUCINATED_WORDS if w not in self.vocab_names)
        self._queue: list[tuple[str, str]] = []
        self._paraphrases_left = 0
        self._typo_sources: dict[str, list[str]] = {}  # part -> phrases safe to misspell

    def __iter__(self):
        return self

    def __next__(self) -> Program:
        return self.next_program()

    def next_program(self, labels: tuple[str, ...] | None = None) -> Program:
        """The next program of the stream, or, given `labels`, a program
        with one of those labels drawn outside the block schedule."""
        rng = self.rng
        if labels is not None:
            label, scene = rng.choice(labels), rng.choice(self.scenes)
        else:
            if not self._queue:
                kinds = [label for label, count in BLOCK for _ in range(count)]
                scenes = [self.scenes[i % len(self.scenes)] for i in range(BLOCK_SIZE)]
                rng.shuffle(kinds)
                rng.shuffle(scenes)
                self._queue = list(zip(kinds, scenes))[::-1]
            label, scene = self._queue.pop()
        if label == VOID:
            word = rng.choice(self.by_result["void"])
            return Program(f"{word}()", scene, VALID, "accepted", None, "void", None)
        if label == VALID:
            history = rng.random() < HISTORY_PROBABILITY
            tree = self._program(scene, history=history)
            eval_scene = self.history_scene[scene] if history else scene
            return self._finish(tree, eval_scene, VALID, "accepted", None, "cost")
        if label == NO_HISTORY:
            tree = self._program(scene, history=True)
            return self._finish(tree, scene, NO_HISTORY, "accepted", EXPECTED_ERROR[label], "cost")
        tree = self._program(scene, history=False)
        if label == UNKNOWN_WORD:
            call = rng.choice([n for n in tree.walk() if n.kind == "call"])
            call.word = rng.choice(self.hallucinated)
            source = render(tree)
        elif label == BAD_ARITY:
            source = render(self._bad_arity(tree))
        elif label == SORT_MISMATCH:
            source = render(self._sort_mismatch(tree, scene))
        elif label == LEXICAL:
            source = self._lexical(render(tree))
        else:
            source = self._syntax(render(tree))
        return Program(source, scene, label, "rejected", EXPECTED_ERROR[label], None, None)

    def _finish(self, tree, scene, label, verdict, error, sort) -> Program:
        source = render(tree)
        exact = render(tree, exact=True)
        return Program(source, scene, label, verdict, error, sort, exact if exact != source else None)

    # -- valid programs ------------------------------------------------------

    def _program(self, scene: str, history: bool) -> _Node:
        rng = self.rng
        self._paraphrases_left = MAX_PARAPHRASES
        terms = [self._cost(scene, history, first=True)]
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            terms.append(self._cost(scene, history, first=False))
        if rng.random() < 0.1:
            # A constant term goes first, so every program still ends with a call's ")".
            terms.insert(0, _Node("num", "cost", value=round(rng.uniform(0.0, 1.0), 3)))
        tree = terms[0]
        for term in terms[1:]:
            tree = _Node("bin", "cost", word="+", args=(tree, term))
        return tree

    def _cost(self, scene: str, history: bool, first: bool) -> _Node:
        rng = self.rng
        if history and first:
            # Guarantee a history read, with the exact names snapshots are keyed by.
            if "move_cost_with_offset" in self.sigs and rng.random() < 0.5:
                return self._call("move_cost_with_offset", scene, history)
            part = self._exact_name(scene, allow_gripper=True)
            return _Node(
                "call", "cost", word="move_cost",
                args=(
                    _Node("call", "point", word="get_centroid", args=(part,)),
                    _Node("call", "point", word="centroid_last", args=(_Node("name", "string", value=part.value),)),
                ),
                kwargs=(("offset", self._vec(scene, history, direction=False)),),
            )
        words = [w for w in self.by_result["cost"] if history or w not in HISTORY_WORDS]
        return self._call(rng.choice(words), scene, history)

    def _call(self, word: str, scene: str, history: bool) -> _Node:
        rng = self.rng
        sig = self.sigs[word]
        args: list[_Node] = []
        kwargs: list[tuple[str, _Node]] = []
        used: list[str] = []
        for pname, psort, required in sig.params:
            if not required and rng.random() < 0.5:
                continue
            if psort == "string":
                value = self._name_for(word, scene, used)
                used.append(value.value)
            elif psort == "vec":
                value = self._vec(scene, history, direction=word in ALIGNMENT_WORDS)
            elif psort == "scalar" and word == "rotate_cost":
                value = _Node("num", "scalar", value=round(rng.uniform(0.0, 3.14), 3))
            else:
                value = self._value(psort, scene, history, depth=1)
            # Optional parameters, and any parameter after one, go by name.
            if kwargs or not required or rng.random() < 0.15:
                kwargs.append((pname, value))
            else:
                args.append(value)
        return _Node("call", sig.result, word=word, args=args, kwargs=kwargs)

    def _name_for(self, word: str, scene: str, used: list[str]) -> _Node:
        if word in HISTORY_WORDS:
            return self._exact_name(scene, allow_gripper=True)
        exclude = used if word in DISTINCT_PAIR_WORDS else ()
        allow_gripper = word not in CLOUD_WORDS and word not in DISTINCT_PAIR_WORDS and word != "orbit_cost"
        return self._resolvable_name(scene, allow_gripper, exclude)

    def _exact_name(self, scene: str, allow_gripper: bool) -> _Node:
        names = list(self.scene_parts[scene]) + ([GRIPPER] if allow_gripper else [])
        return _Node("name", "string", value=self.rng.choice(names))

    def _resolvable_name(self, scene: str, allow_gripper: bool, exclude=()) -> _Node:
        rng = self.rng
        names = [p for p in self.scene_parts[scene] if p not in exclude]
        if allow_gripper and rng.random() < 0.1:
            return _Node("name", "string", value=GRIPPER)
        part = rng.choice(names)
        node = _Node("name", "string", value=part)
        phrases = self.paraphrases[scene].get(part)
        if phrases is not None and self._paraphrases_left and rng.random() < PARAPHRASE_PROBABILITY:
            self._paraphrases_left -= 1
            node.shown = self._paraphrase(scene, part, phrases)
        return node

    def _paraphrase(self, scene: str, part: str, phrases: tuple[str, ...]) -> str:
        rng = self.rng
        if phrases and rng.random() < 0.6:
            return rng.choice(phrases)
        # A one-letter typo of the entry's phrase. Safe when every phrase of
        # any other entry is at least three edits away from the source, so
        # the typo (one edit away) still retrieves this entry.
        candidates = self._typo_sources.get(part)
        if candidates is None:
            entry = next(p for p in self.key_phrases if p[0] == part)
            others = [q for p in self.key_phrases if p is not entry for q in p]
            candidates = self._typo_sources[part] = [
                s for s in entry if all(edit_distance(s, q) >= 3 for q in others) and len(s) >= 8
            ]
        source = rng.choice(candidates)
        letters = [i for i, c in enumerate(source) if c.isalpha()]
        while True:
            i = rng.choice(letters)
            op = rng.choice(("substitute", "delete", "insert"))
            ch = rng.choice("abcdefghijklmnopqrstuvwxyz")
            if op == "substitute":
                typo = source[:i] + ch + source[i + 1 :]
            elif op == "delete":
                typo = source[:i] + source[i + 1 :]
            else:
                typo = source[:i] + ch + source[i:]
            if typo != source and typo not in self.scene_parts[scene]:
                return typo

    def _vec(self, scene: str, history: bool, direction: bool) -> _Node:
        """A vec expression; `direction` ones are never the zero vector."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return _Node("call", "vec", word="get_axis", args=(self._resolvable_name(scene, False),))
        if roll < 0.55 and len(self.scene_parts[scene]) >= 2:
            first = self._resolvable_name(scene, False)
            second = self._resolvable_name(scene, False, exclude=(first.value,))
            return _Node("call", "vec", word="direction_of", args=(first, second))
        if roll < 0.7:
            inner = _Node("call", "vec", word="get_axis", args=(self._resolvable_name(scene, False),))
            return _Node("bin", "vec", word="*", args=(inner, _Node("num", "scalar", value=round(rng.uniform(0.2, 2.0), 3))))
        if direction:
            items = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(3)]
            items[rng.randrange(3)] = round(rng.uniform(0.2, 1.0), 3)
            return _Node("triple", "vec", args=[_Node("num", "scalar", value=v) for v in items])
        return _Node("triple", "vec", args=[self._value("scalar", scene, history, depth=2) for _ in range(3)])

    def _value(self, sort: str, scene: str, history: bool, depth: int) -> _Node:
        rng = self.rng
        if sort == "scalar":
            roll = rng.random()
            if roll < 0.6 or depth > 2:
                return _Node("num", "scalar", value=round(rng.uniform(0.0, 0.3), 3))
            extent = rng.choice([w for w in self.by_result["scalar"]])
            call = _Node("call", "scalar", word=extent, args=(self._resolvable_name(scene, False),))
            if roll < 0.8:
                return call
            return _Node("bin", "scalar", word="+", args=(call, _Node("num", "scalar", value=round(rng.uniform(0.0, 0.2), 3))))
        if sort == "point":
            roll = rng.random()
            getters = [w for w in self.by_result["point"] if history or w not in HISTORY_WORDS]
            if roll < 0.55:
                word = rng.choice(getters)
                sig = self.sigs[word]
                if not sig.params:
                    return _Node("call", "point", word=word)
                if word in HISTORY_WORDS:
                    return _Node("call", "point", word=word, args=(self._exact_name(scene, True),))
                return _Node("call", "point", word=word, args=(self._resolvable_name(scene, True),))
            if roll < 0.75:
                name = self._resolvable_name(scene, True)
                name.sort = "point"
                return name
            if roll < 0.85 or depth > 1:
                return _Node("triple", "point", args=[_Node("num", "scalar", value=round(rng.uniform(-0.5, 0.5), 3)) for _ in range(3)])
            base = self._value("point", scene, history, depth + 1)
            return _Node("bin", "point", word=rng.choice("+-"), args=(base, self._vec(scene, history, False)))
        raise ValueError(f"no generator rule for sort {sort!r}")

    # -- defects -------------------------------------------------------------

    def _bad_arity(self, tree: _Node) -> _Node:
        rng = self.rng
        call = rng.choice([n for n in tree.walk() if n.kind == "call"])
        params = self.sigs[call.word].params
        modes = ["unknown_keyword"]
        if call.args and any(required for _, _, required in params):
            modes.append("missing")
        if not call.kwargs and len(call.args) == len(params):
            modes.append("extra")
        mode = rng.choice(modes)
        if mode == "missing":
            # Dropping the last positional argument leaves a required one unbound.
            call.args.pop()
        elif mode == "extra":
            call.args.append(_Node("num", "scalar", value=1.0))
        else:
            call.kwargs.append(("weight", _Node("num", "scalar", value=1.0)))
        return tree

    def _sort_mismatch(self, tree: _Node, scene: str) -> _Node:
        rng = self.rng
        slots = [
            (parent, i)
            for parent in tree.walk()
            if parent.kind in ("call", "triple") or (parent.kind == "bin" and parent.sort != "cost")
            for i, child in enumerate(parent.args + [v for _, v in parent.kwargs])
            if child.sort in ("vec", "scalar", "point")
            # point + point is a rule, so a vec operand of a point sum cannot be swapped for a point.
            and not (parent.kind == "bin" and parent.sort == "point" and child.sort == "vec")
        ]
        if not slots or rng.random() < 0.25:
            # cost + vec has no grammar rule.
            axis = _Node("call", "vec", word="get_axis", args=(self._resolvable_name(scene, False),))
            return _Node("bin", "cost", word="+", args=(tree, axis))
        parent, index = rng.choice(slots)
        old = (parent.args + [v for _, v in parent.kwargs])[index]
        if old.sort == "vec":
            new = _Node("call", "point", word="get_centroid", args=(self._resolvable_name(scene, False),))
        elif old.sort == "point":
            new = _Node("call", "vec", word="get_axis", args=(self._resolvable_name(scene, False),))
        else:
            new = self._resolvable_name(scene, False)  # a string where a scalar belongs
        if index < len(parent.args):
            parent.args[index] = new
        else:
            k = index - len(parent.args)
            parent.kwargs[k] = (parent.kwargs[k][0], new)
        return tree

    def _lexical(self, source: str) -> str:
        rng = self.rng
        spans = _string_spans(source)
        mode = rng.choice(("illegal", "capital", "unterminated")) if spans else "illegal"
        if mode == "unterminated":
            # Only the last string: no later quote can close it.
            _, end = spans[-1]
            return source[:end] + source[end + 1 :]
        outside = [
            i for i in range(len(source) + 1) if not any(a < i <= b for a, b in spans)
        ]
        if mode == "capital":
            starts = [i for i in outside if i < len(source) and source[i].isalpha()
                      and (i == 0 or not (source[i - 1].isalnum() or source[i - 1] == "_"))]
            if starts:
                i = rng.choice(starts)
                return source[:i] + source[i].upper() + source[i + 1 :]
        i = rng.choice(outside)
        return source[:i] + rng.choice(ILLEGAL_CHARACTERS) + source[i:]

    def _syntax(self, source: str) -> str:
        rng = self.rng
        modes = ["drop_close", "extra_close", "trailing_comma"]
        if " + " in source:
            modes.append("double_plus")
        mode = rng.choice(modes)
        if mode == "drop_close":
            return source[:-1]  # every program ends with a call's ")"
        if mode == "extra_close":
            return source + " )"
        if mode == "trailing_comma":
            return source[:-1] + ", )"
        i = source.index(" + ")
        return source[: i + 3] + "+ " + source[i + 3 :]


def outcome_matches(program: Program, verdict_accepted: bool, error: BaseException | None, sort: str | None) -> bool:
    """Does an observed (verdict, error, sort) match the program's label?"""
    if verdict_accepted != (program.verdict == "accepted"):
        return False
    if verdict_accepted and sort != program.sort:
        return False
    expected = program.error
    if expected is None:
        return error is None
    if error is None or type(error).__name__ != expected:
        return False
    if program.label in (LEXICAL, SYNTAX):
        lexical = str(error).startswith(LEXICAL_MESSAGES)
        return lexical == (program.label == LEXICAL)
    return True
