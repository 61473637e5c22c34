"""Differential tests for the DOM layer.

- The one-pass tokenizer against :mod:`html.parser` (the fallback and the
  reference): every page shape the simulated sites render, every byte
  truncation of a sample of them, and generated markup full of the
  constructs the fast path must decline.
- The indexed selector engine against the recursive engine it replaced,
  kept below as the reference: random trees, random selectors from the
  supported grammar, scoped selects, ``find_all`` and ``links``.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.botstore import build_store_host
from repro.botstore.host import StoreDefenses
from repro.discordsim.oauth import ConsentScreen, parse_invite_url
from repro.ecosystem.generator import EcosystemConfig, generate_ecosystem
from repro.ecosystem.repos import RepoKind
from repro.sites.botwebsites import BotWebsiteBuilder, variant_for
from repro.sites.discordweb import DiscordWebsite
from repro.sites.github import GitHubSite
from repro.sites.reddit import REDDIT_HOSTNAME, RedditSite
from repro.web.client import HttpClient
from repro.web.dom import Element, _parse_fast, _parse_stdlib, parse_html
from repro.web.network import VirtualClock, VirtualInternet


def tree(element: Element) -> tuple:
    """Everything a tree is compared on, children recursively."""
    return (
        element.tag,
        element.attrs,
        element.own_text,
        element.pos,
        element.end,
        [tree(child) for child in element.children],
    )


def assert_same_tree(markup: str) -> Element | None:
    """Both tokenizers agree on ``markup``; returns the fast tree (or None)."""
    reference = tree(_parse_stdlib(markup))
    fast = _parse_fast(markup)
    if fast is not None:
        assert tree(fast) == reference, markup
    assert tree(parse_html(markup)) == reference, markup
    return fast


# --------------------------------------------------------------------------
# Site pages
# --------------------------------------------------------------------------

#: Pages whose markup uses single-quoted attributes, which the fast
#: tokenizer declines by design.
DECLINED_SHAPES = {"captcha wall", "reddit front"}


def _world(eco, captcha: bool) -> HttpClient:
    internet = VirtualInternet(VirtualClock())
    defenses = StoreDefenses(captcha_enabled=captcha, rate_limit_requests=10_000)
    build_store_host(eco, internet, defenses)
    DiscordWebsite(eco).register(internet)
    GitHubSite(eco).register(internet)
    BotWebsiteBuilder(eco).register(internet)
    RedditSite(seed=9).register(internet)
    return HttpClient(internet, default_timeout=10.0)


@pytest.fixture(scope="module")
def site_pages() -> dict[str, str]:
    eco = generate_ecosystem(EcosystemConfig(n_bots=200, seed=13, honeypot_window=40))
    client = _world(eco, captcha=False)
    consent_bot = eco.with_valid_permissions()[0]
    code_bot = next(b for b in eco.bots if b.github and b.github.kind is RepoKind.VALID_CODE)
    policy_bot = next(
        b for b in eco.websites() if b.policy.present and b.policy.link_valid and variant_for(b) != "legal"
    )
    policy = parse_html(client.get(policy_bot.website_url).body).select_one("a.nav-link, a.footer-link")
    file_path = next(iter(code_bot.github.files))
    captcha = ConsentScreen(
        bot_name=consent_bot.name,
        invite=parse_invite_url(consent_bot.invite_url),
        captcha_challenge_id="c-1",
        captcha_prompt="What is 3 + 4?",
        guild_names=["My Server", "Fish & Chips"],
    )
    return {
        "listing A": client.get("https://top.gg.sim/list/top?page=1").body,
        "listing B": client.get("https://top.gg.sim/list/top?page=2").body,
        "detail A": client.get("https://top.gg.sim/bot/0").body,
        "detail B": client.get("https://top.gg.sim/bot/1").body,
        "consent": client.get(consent_bot.invite_url).body,
        "consent captcha": captcha.render_html(),
        "bot home": client.get(policy_bot.website_url).body,
        "policy": client.get(f"https://{policy_bot.website_host}{policy.get('href')}").body,
        "github repo": client.get(code_bot.github_url).body,
        "github file": client.get(f"{code_bot.github_url}/raw/main/{file_path}").body,
        "captcha wall": _world(eco, captcha=True).get("https://top.gg.sim/list/top?page=1").body,
        "reddit front": client.get(f"https://{REDDIT_HOSTNAME}/").body,
        "reddit sub": client.get(f"https://{REDDIT_HOSTNAME}/r/gaming").body,
    }


class TestSitePages:
    def test_every_shape_parses_the_same_and_fast(self, site_pages):
        for shape, body in site_pages.items():
            fast = assert_same_tree(body)
            if shape in DECLINED_SHAPES:
                assert fast is None, shape
            else:
                assert fast is not None, f"{shape} fell back to html.parser"

    def test_shapes_are_the_real_pages(self, site_pages):
        assert parse_html(site_pages["listing A"]).select("a.bot-link")
        assert parse_html(site_pages["listing B"]).select("a[data-bot-id]")
        assert parse_html(site_pages["detail A"]).select_one("#invite-button")
        assert parse_html(site_pages["detail B"]).select_one("a.invite-link")
        assert parse_html(site_pages["consent"]).select("li.permission-item")
        assert parse_html(site_pages["consent captcha"]).select_one("#captcha-challenge p.prompt")
        assert parse_html(site_pages["policy"]).select_one("#policy p")
        assert parse_html(site_pages["github repo"]).select_one("#code-section")
        assert parse_html(site_pages["captcha wall"]).select_one("#captcha-challenge p.prompt")
        assert parse_html(site_pages["reddit front"]).select("a.sub-link")
        assert parse_html(site_pages["reddit sub"]).select("p.comment-body")

    @pytest.mark.parametrize("shape", ["detail A", "detail B", "consent captcha", "github repo"])
    def test_every_truncation(self, site_pages, shape):
        """Chaos truncation cuts a body at any byte; both paths must agree on every cut."""
        body = site_pages[shape]
        taken = sum(assert_same_tree(body[:cut]) is not None for cut in range(len(body) + 1))
        assert 0 < taken < len(body) + 1  # cuts in text stay fast, cuts in a tag fall back


# --------------------------------------------------------------------------
# Generated markup
# --------------------------------------------------------------------------

_words = st.sampled_from(["bot", "a b", "x\ny", "  ", "é", "Fish", "1 > 0", "tab\there"])
_entities = st.sampled_from(["&amp;", "&lt;b&gt;", "&#39;", "&#x41;", "&copy", "&nbsp;", "&", "&am", "&#"])
_text = st.lists(st.one_of(_words, _entities), min_size=1, max_size=4).map("".join)
_TAGS = ["div", "p", "a", "span", "ul", "li", "DIV", "Span", "h1", "br", "img", "input"]
_QUOTINGS = ["double", "double", "double", "single", "bare", "none", "spaced"]
_attr_value = st.one_of(_words, _entities, st.just(""), st.sampled_from(["x>y", "a'b", "/path"]))


@st.composite
def _attribute(draw, quotings: list[str]) -> str:
    name = draw(st.sampled_from(["class", "id", "href", "data-x", "HREF", "rel"]))
    value = draw(_attr_value).replace('"', "")
    quoting = draw(st.sampled_from(quotings))
    if quoting == "double":
        return f' {name}="{value}"'
    if quoting == "single":
        return " {}='{}'".format(name, value.replace("'", ""))
    if quoting == "bare":
        return " {}={}".format(name, re.sub(r"[\s>'&]", "", value) or "v")
    if quoting == "spaced":
        return f' {name} = "{value}"'
    return f" {name}"


@st.composite
def _start_tag(draw, tags: list[str], quotings: list[str]) -> str:
    attrs = "".join(draw(st.lists(_attribute(quotings), max_size=3)))
    return f"<{draw(st.sampled_from(tags))}{attrs}{draw(st.sampled_from(['', '', '/', ' /', ' ']))}>"


_end_tag = st.sampled_from(_TAGS + ["title"]).map(lambda tag: f"</{tag}>")
_oddities = st.sampled_from(
    [
        "<!-- note -->",
        "<!DOCTYPE html>",
        "<!doctype html>",
        "<script>if (a < b) { x = '</p>'; }</script>",
        "<style>p > a { color: red }</style>",
        "a < b",
        "<",
        "<3",
        "</>",
        "<?xml version='1.0'?>",
        "</p >",
        "<p",
        '<a href="x',
        "<br/>",
        "<title>T &amp; <b>bold</b></title>",
    ]
)
_markup = st.lists(
    st.one_of(_text, _start_tag(_TAGS + ["title"], _QUOTINGS), _end_tag, _oddities, _text), min_size=1, max_size=24
).map("".join)
#: Markup the sites could emit: the fast path must take all of it.
_site_like_markup = st.lists(
    st.one_of(_text, _start_tag(_TAGS, ["double"]), _end_tag), min_size=1, max_size=24
).map("".join)


class TestGeneratedMarkup:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_markup)
    def test_fast_path_equals_html_parser(self, markup):
        assert_same_tree(markup)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_site_like_markup)
    def test_site_like_markup_stays_fast(self, markup):
        assert assert_same_tree(markup) is not None, markup

    def test_entity_at_the_very_end(self):
        for markup in ("<p>a &amp", "<p>a &", "<p>a &#3", "<p>fish &amp; chips &co", "x &lt;"):
            assert assert_same_tree(markup) is not None


# --------------------------------------------------------------------------
# Selector engine: the recursive reference
# --------------------------------------------------------------------------

# The engine the index replaced, unchanged except that ``|=`` is evaluated
# (it was accepted and then ignored).  It walks ``children`` only.

_SIMPLE_RE = re.compile(
    r"""
    (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)?
    (?P<parts>(?:\#[\w-]+|\.[\w-]+|\[[^\]]+\])*)
    """,
    re.VERBOSE,
)
_PART_RE = re.compile(r"\#([\w-]+)|\.([\w-]+)|\[([^\]]+)\]")
_ATTR_RE = re.compile(r"^([\w-]+)\s*(?:([~^$*|]?=)\s*(.*))?$")


def reference_descendants(element: Element):
    for child in element.children:
        yield child
        yield from reference_descendants(child)


def reference_iter(element: Element):
    yield element
    yield from reference_descendants(element)


class ReferenceCompound:
    def __init__(self, token: str) -> None:
        match = _SIMPLE_RE.fullmatch(token)
        if not match or (not match.group("tag") and not match.group("parts")):
            raise ValueError(f"unsupported selector token: {token!r}")
        self.tag = match.group("tag") or "*"
        self.ids: list[str] = []
        self.classes: list[str] = []
        self.attr_tests: list[tuple[str, str, str]] = []
        for id_name, class_name, attr_body in _PART_RE.findall(match.group("parts") or ""):
            if id_name:
                self.ids.append(id_name)
            elif class_name:
                self.classes.append(class_name)
            else:
                attr_match = _ATTR_RE.match(attr_body.strip())
                if not attr_match:
                    raise ValueError(f"unsupported attribute selector: [{attr_body}]")
                name, operator, raw_value = attr_match.groups()
                value = (raw_value or "").strip("\"'")
                self.attr_tests.append((name, operator or "", value))

    def matches(self, element: Element) -> bool:
        if self.tag != "*" and element.tag != self.tag:
            return False
        if any(element.id != wanted for wanted in self.ids):
            return False
        if any(wanted not in element.classes for wanted in self.classes):
            return False
        for name, operator, value in self.attr_tests:
            actual = element.attrs.get(name)
            if actual is None:
                return False
            if operator == "" and value == "":
                continue
            if operator == "=" and actual != value:
                return False
            if operator == "^=" and not actual.startswith(value):
                return False
            if operator == "$=" and not actual.endswith(value):
                return False
            if operator == "*=" and value not in actual:
                return False
            if operator == "~=" and value not in actual.split():
                return False
            if operator == "|=" and not (actual == value or actual.startswith(value + "-")):
                return False
        return True


def reference_select(root: Element, selector: str) -> list[Element]:
    results: list[Element] = []
    seen: set[int] = set()
    for group in selector.split(","):
        group = group.strip()
        if not group:
            continue
        steps = []
        combinator = " "
        for token in re.findall(r">|[^\s>]+", group):
            if token == ">":
                combinator = ">"
                continue
            steps.append((combinator, ReferenceCompound(token)))
            combinator = " "
        current: list[Element] = [root]
        for combinator, compound in steps:
            next_set: list[Element] = []
            bucket: set[int] = set()
            for base in current:
                candidates = reference_descendants(base) if combinator == " " else iter(base.children)
                for candidate in candidates:
                    if id(candidate) not in bucket and compound.matches(candidate):
                        bucket.add(id(candidate))
                        next_set.append(candidate)
            current = next_set
        for element in current:
            if id(element) not in seen:
                seen.add(id(element))
                results.append(element)
    order = {id(node): index for index, node in enumerate(reference_iter(root))}
    results.sort(key=lambda node: order.get(id(node), 1 << 30))
    return results


# --------------------------------------------------------------------------
# Selector engine: random trees and selectors
# --------------------------------------------------------------------------

_TREE_TAGS = ["div", "p", "a", "span", "ul", "li", "br"]
_VALUES = ["x", "y", "x-y", "en", "en-US", "x y"]


def random_markup(rng: random.Random, size: int) -> str:
    """Nested markup from a small vocabulary, with unclosed and stray tags."""
    parts: list[str] = []
    open_tags: list[str] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.55:
            tag = rng.choice(_TREE_TAGS)
            attrs = ""
            if rng.random() < 0.6:
                attrs += f' class="{" ".join(rng.sample(["x", "y", "z"], rng.randint(1, 2)))}"'
            if rng.random() < 0.3:
                attrs += f' id="i{rng.randint(1, 3)}"'
            for name in ("rel", "lang", "href"):
                if rng.random() < 0.25:
                    attrs += f' {name}="{rng.choice(_VALUES)}"'
            parts.append(f"<{tag}{attrs}>")
            if tag != "br":
                open_tags.append(tag)
        elif roll < 0.85 and open_tags:
            parts.append(f"</{open_tags.pop()}>")
        elif roll < 0.9:
            parts.append(f"</{rng.choice(_TREE_TAGS)}>")  # stray or skipping closer
        else:
            parts.append(rng.choice(["t", "text ", "more"]))
    return "".join(parts)


def random_compound(rng: random.Random) -> str:
    compound = rng.choice(["", "*", *_TREE_TAGS])
    if rng.random() < 0.2:
        compound += f"#i{rng.randint(1, 3)}"
    for _ in range(rng.choice([0, 0, 1, 2])):
        compound += f".{rng.choice('xyz')}"
    if rng.random() < 0.4:
        name = rng.choice(["rel", "lang", "href", "class"])
        operator = rng.choice(["", "=", "^=", "$=", "*=", "~=", "|="])
        compound += f"[{name}]" if not operator else f"[{name}{operator}{rng.choice(_VALUES[:5])}]"
    return compound or "*"


def random_selector(rng: random.Random) -> str:
    groups = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        steps = [random_compound(rng)]
        for _ in range(rng.choice([0, 1, 1, 2])):
            steps.append(rng.choice([" ", " > ", ">"]))
            steps.append(random_compound(rng))
        groups.append("".join(steps))
    if rng.random() < 0.2:
        groups.append(groups[0])  # a duplicated group
    return ", ".join(groups)


class TestSelectorEngine:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_indexed_select_equals_reference(self, seed):
        rng = random.Random(seed)
        document = parse_html(random_markup(rng, rng.randint(5, 60)))
        scopes = [document, *rng.sample(list(document.descendants()), min(3, document.end - 1))]
        for _ in range(12):
            selector = random_selector(rng)
            for scope in scopes:
                expected = reference_select(scope, selector)
                actual = scope.select(selector)
                assert [id(node) for node in actual] == [id(node) for node in expected], (selector, scope)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_traversal_helpers_equal_reference(self, seed):
        rng = random.Random(seed)
        document = parse_html(random_markup(rng, rng.randint(5, 60)))
        for scope in reference_iter(document):
            assert list(scope.iter()) == list(reference_iter(scope))
            assert list(scope.descendants()) == list(reference_descendants(scope))
            for tag in ("a", "li", "br", "table"):
                assert scope.find_all(tag) == [n for n in reference_descendants(scope) if n.tag == tag]
            anchors = [n for n in reference_descendants(scope) if n.tag == "a"]
            assert scope.links() == [n.attrs["href"] for n in anchors if n.attrs.get("href")]

    def test_scoped_select_through_the_browser_shape(self, site_pages):
        """``WebElement.find_element`` selects from a subtree root."""
        document = parse_html(site_pages["consent"])
        for scope in [document, *document.descendants()]:
            for selector in ("li", "li.permission-item", "ul > li", "*", "p, h1, p", "#permission-list li"):
                assert scope.select(selector) == reference_select(scope, selector)
