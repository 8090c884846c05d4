import json
import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maniplang import fixtures
from maniplang.language import (
    Accepted,
    ArgumentError,
    BinOp,
    Call,
    Literal,
    Neg,
    ParseError,
    Rejected,
    Token,
    Triple,
    TypeCheckError,
    UnknownWordError,
    default_vocabulary,
    parse,
    to_source,
    tokenize,
    type_check,
    validate_program,
    vocabulary_from_json,
    vocabulary_size,
)
from maniplang.language import typecheck
from maniplang.language.parser import MAX_DEPTH
from maniplang.language.vocabulary import Vocabulary, VocabularyError

from util import CARROT_KNIFE_PROGRAM, PEN_PROGRAM


class TestVocabulary:
    def test_census_is_twenty(self):
        assert vocabulary_size(default_vocabulary()) == 20

    def test_move_cost_results_in_cost(self):
        assert default_vocabulary().lookup("move_cost").result_sort == "cost"

    def test_get_axis_results_in_vec(self):
        assert default_vocabulary().lookup("get_axis").result_sort == "vec"

    def test_empty_vocabulary_counts_zero(self):
        assert vocabulary_size(Vocabulary([])) == 0

    def test_centroid_aliases_get_centroid(self):
        vocab = default_vocabulary()
        assert vocab.lookup("centroid").name == "get_centroid"

    def test_json_round_trip(self):
        # Every field of every shipped profile's words and rules is read as written.
        for path in sorted(fixtures.shipped_profiles_dir().glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            vocab, rules = vocabulary_from_json(doc)
            assert vocab.has_host_escape == doc.get("has_host_escape", False)
            assert [(r.lhs, list(r.rhs)) for r in rules] == [(r["lhs"], r["rhs"]) for r in doc.get("rules", [])]
            assert [
                (w.name, [(p.name, p.sort, p.required) for p in w.params], w.result_sort, w.alias_of)
                for w in vocab.words
            ] == [
                (
                    w["name"],
                    [(p["name"], p["sort"], p.get("required", True)) for p in w.get("params", [])],
                    w["result_sort"],
                    w.get("alias_of"),
                )
                for w in doc["words"]
            ], path.name

    @pytest.mark.parametrize("doc", [[], "words", 5, None], ids=["list", "string", "number", "null"])
    def test_a_document_that_is_not_an_object_raises_vocabulary_error(self, doc):
        with pytest.raises(VocabularyError, match="must be a JSON object"):
            vocabulary_from_json(doc)


class TestParse:
    def test_pen_program_shape(self):
        expr = parse('parallel_cost(get_axis("pen"), get_axis("pen holder"))')
        assert isinstance(expr, Call)
        assert expr.word == "parallel_cost"
        assert len(expr.args) == 2
        assert expr.args[1] == Call("get_axis", (Literal("pen holder"),))

    def test_empty_program_errors_at_offset_zero(self):
        with pytest.raises(ParseError) as err:
            parse("")
        assert err.value.offset == 0

    def test_named_offset_argument(self):
        expr = parse(
            'move_cost(get_centroid("knife"), get_centroid("knife blade"), offset=[0,0,0.1])'
        )
        assert isinstance(expr, Call)
        assert len(expr.args) == 2
        assert expr.kwargs[0][0] == "offset"
        assert isinstance(expr.kwargs[0][1], Triple)

    def test_np_array_is_list_spelling(self):
        assert parse("np.array([1, 2, 3])") == parse("[1, 2, 3]")

    def test_comments_are_skipped(self):
        source = "gripper_open_cost() # releases the grasped item\n"
        assert parse(source) == Call("gripper_open_cost")

    def test_single_and_double_quotes(self):
        assert parse("get_axis('pen')") == parse('get_axis("pen")')

    def test_unary_minus_and_precedence(self):
        expr = parse("-get_height('pot') - 0.02")
        assert isinstance(expr, BinOp) and expr.op == "-"
        assert isinstance(expr.left, Neg)

    def test_error_carries_expected_set(self):
        with pytest.raises(ParseError) as err:
            parse("move_cost(get_centroid(")
        assert err.value.expected

    def test_bare_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse("vector")

    def test_determinism(self):
        source = CARROT_KNIFE_PROGRAM
        assert parse(source) == parse(source)


class TestTypeCheck:
    def test_carrot_knife_listing_types_as_cost(self):
        typed = type_check(parse(CARROT_KNIFE_PROGRAM))
        assert typed.sort == "cost"

    def test_parallel_of_points_is_sort_error(self):
        expr = parse('parallel_cost(get_centroid("a"), get_centroid("b"))')
        with pytest.raises(TypeCheckError) as err:
            type_check(expr)
        assert err.value.expected == "vec"
        assert err.value.actual == "point"

    def test_unknown_word(self):
        with pytest.raises(UnknownWordError):
            type_check(parse('fly_to("moon")'))

    def test_unknown_named_argument_rejected(self):
        with pytest.raises(ArgumentError):
            type_check(parse('move_cost("a", "b", offzet=[0,0,1])'))

    def test_missing_required_argument(self):
        with pytest.raises(ArgumentError):
            type_check(parse("parallel_cost(get_axis('pen'))"))

    def test_sum_requires_cost_children(self):
        with pytest.raises(TypeCheckError):
            type_check(parse('gripper_open_cost() + get_centroid("a")'))

    def test_sum_rule_composes_costs(self):
        typed = type_check(parse("gripper_open_cost() + gripper_close_first_cost()"))
        assert typed.sort == "cost"
        assert all(child.sort == "cost" for child in typed.children)

    def test_call_children_follow_the_parameters(self):
        typed = type_check(parse("orbit_cost(moving_part='a', radius=0.5, center_part='b')"))
        assert [name for name, _ in typed.bound] == ["center_part", "radius", "moving_part"]
        assert typed.children == tuple(value for _, value in typed.bound)

    def test_string_coerces_to_point_only_where_expected(self):
        typed = type_check(parse("move_cost('gripper', 'button')"))
        assert typed.sort == "cost"

    def test_scalar_expressions_inside_lists(self):
        typed = type_check(
            parse("move_cost_with_offset('pot', offset=[0, 0, get_height('pot') + 0.1])")
        )
        assert typed.sort == "cost"

    def test_vec_times_scalar(self):
        typed = type_check(
            parse(
                "move_cost('gripper', centroid_last('gripper') + "
                "direction_of(start='drawer', end='gripper') * 0.15)"
            )
        )
        assert typed.sort == "cost"

    @pytest.mark.parametrize(
        "source",
        [
            "(1 + 2) + gripper_open_cost()",
            "move_cost('a', 'b', offset=([1, 2, 3] + [0, 0, 1]) * 2)",
            "parallel_cost([0, 0, 1] + get_axis('a') + get_axis('b'), [0, 0, 1])",
            "move_cost('a', get_centroid('b') + [0, 0, 1] * 2)",
        ],
    )
    def test_operation_on_literals_takes_the_sort_its_context_needs(self, source):
        # `1 + 2` is a scalar or a cost, `[0, 0, 1] + get_axis('a')` a point or a vec;
        # the list in `[0, 0, 1] * 2` is a vec though the sum around it is a point.
        assert type_check(parse(source)).sort == "cost"

    def test_rules_are_consulted(self, monkeypatch):
        # Without the cost sum rule, composition must fail.
        rules = {pair: None for pair in typecheck._GRAMMAR if pair != ("cost", ("cost", "+", "cost"))}
        monkeypatch.setattr(typecheck, "_GRAMMAR", rules)
        with pytest.raises(TypeCheckError):
            type_check(parse("gripper_open_cost() + gripper_open_cost()"))

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("parallel_cost(get_axis('a'), get_axis('b'), get_axis('c'))", ArgumentError, "at most 2"),
            ("parallel_cost(get_axis('a'), first=get_axis('b'))", ArgumentError, "'first' given twice"),
            ("move_cost('a', [0, 1])", TypeCheckError, "2-element list"),
            ("move_cost('a', [0, 1, get_axis('b')])", TypeCheckError, "expected scalar, got vec"),
            ("move_cost('a', 'b', offset=[0, 0, -get_axis('b')])", TypeCheckError, "expected scalar, got vec"),
            ("move_cost('a', np.zeros([0, 0, 1]))", ParseError, "unknown dotted name"),
            ("move_cost(source='a', 'b')", ParseError, "positional argument after named"),
        ],
    )
    def test_malformed_calls_rejected(self, source, error, message):
        with pytest.raises(error, match=message):
            type_check(parse(source))

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("0 - [0, 1]", TypeCheckError, "expected a 3-element list, got 2-element list"),
            ("[1, 2, get_axis('a')] + fly_to('x')", TypeCheckError, r'expected scalar, got vec in `get_axis\("a"\)`'),
        ],
        ids=["length", "item"],
    )
    def test_a_lists_own_defect_is_reported_first(self, source, error, message):
        # Each operand is typed in full, left then right, before the rule
        # check; so a list's length or item is named ahead of a mismatch of
        # the operator or a defect of the right operand.
        with pytest.raises(error, match=message):
            type_check(parse(source))

    def test_each_node_is_typed_once(self, monkeypatch):
        calls = []
        readings = typecheck._readings

        def counted(node, expected):
            calls.append(node)
            return readings(node, expected)

        monkeypatch.setattr(typecheck, "_readings", counted)
        # Each term is a call and its two strings; the sum adds one + per
        # term after the first.
        assert validate_program(" + ".join(["move_cost('a', 'b')"] * MAX_DEPTH))
        assert len(calls) == 4 * MAX_DEPTH - 1

    def test_alias_resolves_to_canonical_word(self):
        typed = type_check(parse("centroid('cup')"), expected_sort="point")
        assert typed.word == "get_centroid"


class TestValidateProgram:
    def test_truncated_expression_rejected(self):
        verdict = validate_program("move_cost(get_centroid(")
        assert isinstance(verdict, Rejected)
        assert "ParseError" in verdict.reason

    def test_pen_program_accepted(self):
        assert isinstance(validate_program(PEN_PROGRAM), Accepted)

    def test_void_gripper_action_accepted(self):
        verdict = validate_program("gripper_open()")
        assert isinstance(verdict, Accepted)
        assert verdict.typed.sort == "void"

    def test_point_program_rejected(self):
        verdict = validate_program("get_centroid('cup')")
        assert isinstance(verdict, Rejected)

    def test_zero_literal_is_a_cost_program(self):
        verdict = validate_program("0")
        assert isinstance(verdict, Accepted)
        assert verdict.typed.sort == "cost"

    def test_negative_literal_is_not_a_cost(self):
        assert isinstance(validate_program("-1"), Rejected)

    def test_long_sum_checks_in_linear_time(self):
        # Each node is typed once (test_each_node_is_typed_once counts it). A
        # checker that typed an operand again once its rule is picked would
        # take about 2^k inferences for k terms: seconds at 18 terms, against
        # milliseconds.
        source = " + ".join(["move_cost('a', 'b')"] * 18)
        start = time.perf_counter()
        verdict = validate_program(source)
        assert time.perf_counter() - start < 1.0
        assert verdict and verdict.typed.sort == "cost"

    def test_never_raises_on_garbage_bytes(self):
        for source in (
            "", "£$%^", ")(", "move_cost)(", "[", '"unterminated',
            "²", "٣", "1e309", "9" * 400, "(" * 10_000,
        ):
            verdict = validate_program(source)
            assert isinstance(verdict, Rejected), source[:20]
            assert "ParseError" in verdict.reason, source[:20]

    def test_deep_parentheses_rejected(self):
        at_bound = "(" * MAX_DEPTH + "0" + ")" * MAX_DEPTH
        assert isinstance(validate_program(at_bound), Accepted)
        verdict = validate_program("(" + at_bound + ")")
        assert isinstance(verdict, Rejected)
        assert f"nested deeper than {MAX_DEPTH} levels at offset {MAX_DEPTH}" in verdict.reason
        assert isinstance(validate_program("(" * 10_000 + "0" + ")" * 10_000), Rejected)

    def test_deep_unary_minus_rejected(self):
        program = "move_cost('a', 'b', offset=[0, 0, {}1])"
        # The literal sits two levels down (call, list), plus one per minus.
        assert isinstance(validate_program(program.format("-" * (MAX_DEPTH - 2))), Accepted)
        assert isinstance(validate_program(program.format("-" * (MAX_DEPTH - 1))), Rejected)
        assert isinstance(validate_program("-" * 10_000 + "1"), Rejected)

    def test_long_sum_rejected_by_height(self):
        # A left-deep sum is as tall as it has operators, plus the call level.
        term = "gripper_open_cost()"
        assert isinstance(validate_program(" + ".join([term] * MAX_DEPTH)), Accepted)
        verdict = validate_program(" + ".join([term] * 10_000))
        assert isinstance(verdict, Rejected)
        assert f"nested deeper than {MAX_DEPTH} levels" in verdict.reason

    def test_token_shuffle_fuzz_rejects_virtually_all(self):
        tokens = [t.text for t in tokenize(CARROT_KNIFE_PROGRAM)[:-1]]
        rng = random.Random(2024)
        rejected = 0
        runs = 1000
        for _ in range(runs):
            shuffled = tokens[:]
            rng.shuffle(shuffled)
            if isinstance(validate_program(" ".join(shuffled)), Rejected):
                rejected += 1
        assert rejected >= int(0.99 * runs), f"only {rejected}/{runs} shuffles rejected"


# -- the regular-expression lexer against a character-by-character scanner -----


def _reference_tokenize(source: str) -> list[Token]:
    """The character-by-character scanner the lexer replaced (its helpers
    inlined), kept as the reference. It reads any `str.isdigit` character
    as a digit."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c in "()[],+-*=.":
            tokens.append(Token(c, c, i))
            i += 1
            continue
        if c in "'\"":
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise ParseError("unterminated string", i, ("closing quote",))
                j += 1
            if j >= n:
                raise ParseError("unterminated string", i, ("closing quote",))
            tokens.append(Token("STRING", source[i : j + 1], i, value=source[i + 1 : j]))
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            tokens.append(Token("NUMBER", text, i, value=float(text)))
            i = j
            continue
        if c == "_" or "a" <= c <= "z":
            j = i
            while j < n and (source[j] == "_" or "a" <= source[j] <= "z" or "0" <= source[j] <= "9"):
                j += 1
            text = source[i:j]
            tokens.append(Token("IDENT", text, i, value=text))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, ("token",))
    tokens.append(Token("EOF", "", n))
    return tokens


# The language's characters, other whitespace, other quotes, and non-ASCII
# letters and digits ("²" is a digit to str.isdigit but not to float, so
# the reference raises ValueError on it).
_LEXER_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyz_0123456789eE()[],+-*=.#'\" \t\r\n"
    "\x0b\x0c\xa0\u2028`\u2018\u2019\u201c\u201dAZéΩ²٣"
)


def _expected_tokens(text):
    """The reference's tokens or error, plus the one rule it lacks: a number
    literal that is not a finite float is an error where it starts."""
    try:
        tokens, error = _reference_tokenize(text), None
    except ParseError as exc:
        # The tokens before the error, which the lexer sees first.
        tokens = _reference_tokenize(text[: exc.offset])
        error = (str(exc), exc.offset, exc.expected)
    for token in tokens:
        if token.kind == "NUMBER" and not math.isfinite(token.value):
            message = f"number literal is not finite at offset {token.offset} (expected finite number)"
            return (message, token.offset, ("finite number",))
    return error or tokens


_lexer_text = st.text(_LEXER_ALPHABET, max_size=40)
# Number literals around the float range, e.g. 1e308 and 1e309, inside text.
_numbers = st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,3})?[eE][+-]?[0-9]{1,3}", fullmatch=True)


@settings(max_examples=500, deadline=None)
@given(_lexer_text | st.tuples(_lexer_text, _numbers, _lexer_text).map("".join))
def test_tokenize_matches_the_character_scanner(text):
    # Digits are ASCII now: the reference reads "٣" as 3, the lexer rejects it.
    assume(not any(c.isdecimal() and not c.isascii() for c in text))
    try:
        expected = _expected_tokens(text)
    except ValueError:
        assume(False)
    try:
        actual = tokenize(text)
    except ParseError as exc:
        actual = (str(exc), exc.offset, exc.expected)
    assert actual == expected


@settings(max_examples=500, deadline=None)
@given(st.text(_LEXER_ALPHABET) | st.text())
def test_validate_program_is_total(text):
    assert isinstance(validate_program(text), (Accepted, Rejected))


# -- the depth bound against the height of the concrete syntax tree -------------


def _reference_height(tokens: list[Token]) -> int:
    """Height of the concrete syntax tree, counted bottom-up: parentheses,
    lists, calls and unary minus are nodes, chains are left-deep. Covers
    the sources `_tall_source` writes (no named arguments, no np.array)."""
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1].kind

    def chain(ops, operand):
        height = operand()
        while tokens[pos].kind in ops:
            take()
            height = max(height, operand()) + 1
        return height

    def expr():
        return chain(("+", "-"), lambda: chain(("*",), unary))

    def unary():
        if tokens[pos].kind == "-":
            take()
            return 1 + unary()
        kind = take()
        if kind in ("NUMBER", "STRING"):
            return 0
        if kind == "(":
            height = expr()
        else:  # a list, or a call: IDENT '(' args ')'
            if kind == "IDENT":
                take()
            heights = [0] if tokens[pos].kind in (")", "]") else [expr()]
            while tokens[pos].kind == ",":
                take()
                heights.append(expr())
            height = max(heights)
        take()
        return 1 + height

    return expr()


def _tall_source(rng: random.Random, budget: int) -> str:
    """Concrete source with one deep child per node and shallow siblings."""
    if budget <= 0:
        return rng.choice(["1", "'a'", "f()"])
    deep = _tall_source(rng, budget - 1)
    parts = [deep] + [
        _tall_source(rng, rng.randint(0, min(2, budget - 1))) for _ in range(rng.randint(1, 3))
    ]
    rng.shuffle(parts)
    roll = rng.random()
    if roll < 0.2:
        return f"({deep})"
    if roll < 0.35:
        return f"-{deep}"
    if roll < 0.55:
        return "[" + ", ".join(parts) + "]"
    if roll < 0.75:
        return "f(" + ", ".join(parts) + ")"
    return parts[0] + "".join(rng.choice([" + ", " - ", " * "]) + part for part in parts[1:])


def test_depth_bound_is_the_concrete_tree_height():
    rng = random.Random(6)
    verdicts = set()
    for _ in range(150):
        source = _tall_source(rng, rng.randint(MAX_DEPTH // 2, MAX_DEPTH))
        height = _reference_height(tokenize(source))
        try:
            parse(source)
            accepted = True
        except ParseError as exc:
            assert "nested deeper" in str(exc)
            accepted = False
        assert accepted == (height <= MAX_DEPTH), (height, source)
        verdicts.add(accepted)
    assert verdicts == {True, False}


def _random_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        choice = rng.randrange(3)
        if choice == 0:
            return Literal(round(rng.uniform(0, 10), 3))
        if choice == 1:
            return Literal(rng.choice(["pen", "pen holder", "cup rim", "knife blade"]))
        return Triple(tuple(Literal(float(rng.randrange(5))) for _ in range(3)))
    if roll < 0.5:
        return BinOp(
            rng.choice(["+", "-", "*"]),
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
        )
    if roll < 0.6:
        return Neg(_random_expr(rng, depth - 1))
    name = rng.choice(["move_cost", "get_axis", "parallel_cost", "orbit_cost"])
    args = tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(3)))
    kwargs = ()
    if rng.random() < 0.3:
        kwargs = (("offset", _random_expr(rng, depth - 1)),)
    return Call(name, args, kwargs)


class TestPrinter:
    def test_round_trip_on_sample_programs(self):
        samples = [
            CARROT_KNIFE_PROGRAM,
            PEN_PROGRAM,
            "move_cost('gripper', centroid_last('gripper') + "
            "direction_of(start='drawer', end='gripper') * 0.15)",
            "gripper_close_first_cost() + move_cost('gripper', 'button')",
            "move_cost_with_offset('pot', offset=[0, 0, -get_height('pot') - 0.02])",
            "0 + 0",
        ]
        for source in samples:
            first = parse(source)
            assert parse(to_source(first)) == first

    def test_round_trip_on_random_asts(self):
        rng = random.Random(99)
        for _ in range(500):
            expr = _random_expr(rng, 4)
            assert parse(to_source(expr)) == expr

    def test_structure_preserving_parentheses(self):
        left_assoc = BinOp("-", BinOp("-", Literal(1.0), Literal(2.0)), Literal(3.0))
        right_assoc = BinOp("-", Literal(1.0), BinOp("-", Literal(2.0), Literal(3.0)))
        assert parse(to_source(left_assoc)) == left_assoc
        assert parse(to_source(right_assoc)) == right_assoc
        assert to_source(left_assoc) != to_source(right_assoc)
