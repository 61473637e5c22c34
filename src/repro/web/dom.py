"""HTML parsing and CSS-style element location.

This is the substrate for the Selenium-like locator API in
:mod:`repro.web.browser`.  :func:`parse_html` produces a tree of
:class:`Element` nodes and :func:`select` implements the selector subset
the scraper uses:

- type selectors (``a``, ``div``), universal ``*``
- ``#id``, ``.class``, attribute ``[href]``, ``[rel=value]``,
  ``[href^=prefix]``, ``[href*=substring]``, ``[href$=suffix]``,
  ``[class~=word]`` and ``[lang|=en]`` (``en`` or ``en-…``); values may be
  quoted and then contain whitespace, ``,`` or ``>``
- compound selectors (``a.bot-link[data-id]``)
- descendant (whitespace) and child (``>``) combinators
- selector groups separated by commas

**The index.**  While the tree is built, every element gets its preorder
position ``pos`` and the end ``end`` of its descendant range, and the
document keeps the flat node list plus ``tag -> elements`` and
``id -> elements`` lists, all in document order.  The descendants of a node
are one slice of that list, a ``#id`` or ``tag`` step starts from its index
list, and results sort on the stored position.  Selector strings are
compiled once (an LRU cache on the string, 512 entries; the scraper uses
27).  The tree is read-only once parsed.

**Two tokenizers, one tree builder.**  The markup the simulated sites emit
(text, start and end tags with double-quoted attributes, ``/>``,
``<!DOCTYPE html>``) is tokenized in one pass over a single compiled regex.
Anything else (single-quoted or bare attribute values, comments,
``script``/``style`` and other raw-text elements, a stray ``<``, a
truncated tag) makes that pass decline, and the whole body is re-parsed
with :mod:`html.parser`, which stays the reference behaviour.  Both drive
the same :class:`_TreeBuilder`, so both yield the same tree.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from html import unescape
from html.parser import HTMLParser
from operator import attrgetter
from typing import Callable, Iterator

#: Elements that never have a closing tag.
VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source", "track", "wbr"}
)

_POSITION = attrgetter("pos")


class _Index:
    """A document's nodes in document order, and its tag and id lookups."""

    __slots__ = ("nodes", "by_tag", "by_id")

    def __init__(self) -> None:
        self.nodes: list[Element] = []
        self.by_tag: dict[str, list[Element]] = {}
        self.by_id: dict[str, list[Element]] = {}


class Element:
    """One node of the parsed document tree.

    ``pos`` is the node's preorder position in its document and
    ``index.nodes[pos + 1:end]`` are its descendants.
    """

    __slots__ = ("tag", "attrs", "children", "parent", "own_text", "index", "pos", "end")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None, parent: "Element | None" = None) -> None:
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element] = []
        self.parent = parent
        #: Text directly inside this element (not descendants).
        self.own_text = ""
        self.index: _Index | None = None
        self.pos = 0
        self.end = 1

    # -- content --------------------------------------------------------------

    @property
    def text(self) -> str:
        """All descendant text, whitespace-normalised."""
        return " ".join(" ".join(node.own_text for node in self.iter()).split())

    # -- attributes -------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrs.get(name, default)

    @property
    def id(self) -> str | None:
        return self.attrs.get("id")

    @property
    def classes(self) -> frozenset[str]:
        return frozenset((self.attrs.get("class") or "").split())

    # -- traversal ---------------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """This element and all its descendants, in document order."""
        return iter(self.index.nodes[self.pos : self.end])

    def descendants(self) -> Iterator["Element"]:
        return iter(self.index.nodes[self.pos + 1 : self.end])

    def find_all(self, tag: str) -> list["Element"]:
        return list(_within(self.index.by_tag.get(tag, []), self.pos + 1, self.end))

    def select(self, selector: str) -> list["Element"]:
        return select(self, selector)

    def select_one(self, selector: str) -> "Element | None":
        matches = select(self, selector)
        return matches[0] if matches else None

    def links(self) -> list[str]:
        """All non-empty ``href`` attributes below this element."""
        return [anchor.attrs["href"] for anchor in self.find_all("a") if anchor.attrs.get("href")]

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        cls = "." + ".".join(sorted(self.classes)) if self.classes else ""
        return f"<Element {self.tag}{ident}{cls}>"


def _within(elements: list[Element], low: int, high: int) -> list[Element]:
    """The members of a document-ordered list whose position is in ``[low, high)``."""
    if not elements or (elements[0].pos >= low and elements[-1].pos < high):
        return elements
    return elements[bisect_left(elements, low, key=_POSITION) : bisect_left(elements, high, key=_POSITION)]


class _TreeBuilder:
    """Builds the Element tree and its index, tolerating unclosed tags like a browser."""

    def __init__(self) -> None:
        self.root = Element("document")
        self.index = self.root.index = _Index()
        self.index.nodes.append(self.root)
        self._stack: list[Element] = [self.root]

    def start(self, tag: str, attrs: dict[str, str], void: bool) -> None:
        parent = self._stack[-1]
        element = Element(tag, attrs, parent)
        parent.children.append(element)
        index = self.index
        element.index = index
        element.pos = len(index.nodes)
        index.nodes.append(element)
        index.by_tag.setdefault(tag, []).append(element)
        if "id" in attrs:
            index.by_id.setdefault(attrs["id"], []).append(element)
        if not void:
            self._stack.append(element)

    def end(self, tag: str) -> None:
        # Pop back to the matching open tag, ignoring stray closers.
        stack = self._stack
        for depth in range(len(stack) - 1, 0, -1):
            if stack[depth].tag == tag:
                del stack[depth:]
                return

    def data(self, text: str) -> None:
        self._stack[-1].own_text += text

    def finish(self) -> Element:
        """Close the descendant ranges (children before parents) and return the root."""
        for element in reversed(self.index.nodes):
            element.end = element.children[-1].end if element.children else element.pos + 1
        return self.root


class _StdlibTokenizer(HTMLParser):
    """Drives a :class:`_TreeBuilder` from :mod:`html.parser`."""

    def __init__(self, builder: _TreeBuilder) -> None:
        super().__init__(convert_charrefs=True)
        self.builder = builder

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self.builder.start(tag, {name: (value or "") for name, value in attrs}, tag in VOID_TAGS)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self.builder.start(tag, {name: (value or "") for name, value in attrs}, True)

    def handle_endtag(self, tag: str) -> None:
        self.builder.end(tag)

    def handle_data(self, data: str) -> None:
        self.builder.data(data)


#: One token of the markup the fast tokenizer accepts: a text run (1); a
#: start tag (2) with double-quoted attributes (3) and an optional ``/``
#: (4); an end tag (5); the HTML5 doctype.  Whitespace is spelled out
#: because ``\s`` would also take Unicode spaces that html.parser keeps in
#: a tag name.
_TOKEN_RE = re.compile(
    r"([^<]+)"
    r"|<([a-zA-Z][a-zA-Z0-9]*)((?:[ \t\n\r\f]+[a-zA-Z_:][-a-zA-Z0-9_:.]*=\"[^\"]*\")*)[ \t\n\r\f]*(/?)>"
    r"|</([a-zA-Z][a-zA-Z0-9]*)>"
    r"|<!DOCTYPE html>"
)
_TOKEN_ATTR_RE = re.compile(r"([a-zA-Z_:][-a-zA-Z0-9_:.]*)=\"([^\"]*)\"")
#: Elements whose content is not markup; html.parser handles them.
_RAW_TEXT_TAGS = frozenset({"script", "style", "xmp", "iframe", "noembed", "noframes", "noscript", "plaintext"})
#: Text-only elements; taken only when the text runs straight to the end tag.
_TEXT_ONLY_TAGS = frozenset({"title", "textarea"})


def _parse_fast(markup: str) -> Element | None:
    """Tree for ``markup`` in one regex pass, or None where it declines."""
    builder = _TreeBuilder()
    match = _TOKEN_RE.match
    pos, size = 0, len(markup)
    while pos < size:
        token = match(markup, pos)
        if token is None:
            return None
        pos = token.end()
        text, tag, attributes, slash, closing = token.groups()
        if text is not None:
            builder.data(unescape(text) if "&" in text else text)
        elif tag is not None:
            tag = tag.lower()
            if tag in _RAW_TEXT_TAGS:
                return None
            if tag in _TEXT_ONLY_TAGS and not markup.startswith(f"</{tag}>", markup.find("<", pos)):
                return None
            attrs = {}
            for name, value in _TOKEN_ATTR_RE.findall(attributes):
                attrs[name.lower()] = unescape(value) if "&" in value else value
            builder.start(tag, attrs, bool(slash) or tag in VOID_TAGS)
        elif closing is not None:
            builder.end(closing.lower())
    return builder.finish()


def _parse_stdlib(markup: str) -> Element:
    """Tree for ``markup`` through :mod:`html.parser`."""
    builder = _TreeBuilder()
    tokenizer = _StdlibTokenizer(builder)
    tokenizer.feed(markup)
    tokenizer.close()
    return builder.finish()


def parse_html(markup: str) -> Element:
    """Parse ``markup`` into a document-rooted :class:`Element` tree."""
    root = _parse_fast(markup)
    return root if root is not None else _parse_stdlib(markup)


# --------------------------------------------------------------------------
# CSS selector engine
# --------------------------------------------------------------------------

#: One selector token.  Attribute values may be quoted, and quoted values
#: may hold whitespace, ``,``, ``>`` and ``]``.
_SELECTOR_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<combinator>[>,])
  | (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)
  | \#(?P<id>[\w-]+)
  | \.(?P<cls>[\w-]+)
  | (?P<attr>\[\s*(?P<name>[\w-]+)\s*(?:(?P<operator>[^\w\s\]"']?=)\s*
        (?:"(?P<double>[^"]*)"|'(?P<single>[^']*)'|(?P<bare>[^\s\]"']*))\s*)?\])
    """,
    re.VERBOSE,
)

#: Attribute operators: ``test(actual, wanted)``.
_ATTR_OPS = {
    "": lambda actual, wanted: True,
    "=": str.__eq__,
    "^=": str.startswith,
    "$=": str.endswith,
    "*=": lambda actual, wanted: wanted in actual,
    "~=": lambda actual, wanted: wanted in actual.split(),
    "|=": lambda actual, wanted: actual == wanted or actual.startswith(wanted + "-"),
}


class _Compound:
    """One compound selector: tag + ids + classes + attribute tests."""

    __slots__ = ("tag", "ids", "classes", "attr_tests")

    def __init__(self) -> None:
        self.tag: str | None = None  # None matches any tag
        self.ids: list[str] = []
        self.classes: list[str] = []
        self.attr_tests: list[tuple[str, Callable[[str, str], bool], str]] = []

    def add(self, token: re.Match) -> None:
        kind = token.lastgroup
        if kind == "tag":
            if self.tag is not None or self.ids or self.classes or self.attr_tests:
                raise ValueError(f"unsupported selector token: {token.group()!r}")
            self.tag = None if token.group("tag") == "*" else token.group("tag")
        elif kind == "id":
            self.ids.append(token.group("id"))
        elif kind == "cls":
            self.classes.append(token.group("cls"))
        else:
            name, operator, double, single, bare = token.group("name", "operator", "double", "single", "bare")
            test = _ATTR_OPS.get(operator or "")
            if test is None:
                raise ValueError(f"unsupported attribute operator: {token.group()!r}")
            wanted = double if double is not None else single if single is not None else bare
            self.attr_tests.append((name, test, wanted or ""))

    def matches(self, element: Element) -> bool:
        if self.tag is not None and element.tag != self.tag:
            return False
        attrs = element.attrs
        for wanted in self.ids:
            if attrs.get("id") != wanted:
                return False
        if self.classes:
            have = (attrs.get("class") or "").split()
            for wanted in self.classes:
                if wanted not in have:
                    return False
        for name, test, wanted in self.attr_tests:
            actual = attrs.get(name)
            if actual is None or not test(actual, wanted):
                return False
        return True

    def below(self, base: Element) -> list[Element]:
        """Descendants of ``base`` that match, starting from the narrowest index list."""
        index = base.index
        if self.ids:
            candidates = _within(index.by_id.get(self.ids[0], []), base.pos + 1, base.end)
        elif self.tag is not None:
            candidates = _within(index.by_tag.get(self.tag, []), base.pos + 1, base.end)
        else:
            candidates = index.nodes[base.pos + 1 : base.end]
        return [element for element in candidates if self.matches(element)]


Step = tuple[str, _Compound]


@lru_cache(maxsize=512)
def _compile(selector: str) -> tuple[tuple[Step, ...], ...]:
    """Parse ``selector`` into groups of ``(combinator, compound)`` steps."""
    groups: list[tuple[Step, ...]] = []
    steps: list[Step] = []
    combinator = " "
    compound: _Compound | None = None
    pos = 0
    while pos < len(selector):
        token = _SELECTOR_RE.match(selector, pos)
        if token is None:
            raise ValueError(f"unsupported selector token: {selector[pos:]!r}")
        pos = token.end()
        if token.lastgroup not in ("space", "combinator"):
            compound = compound if compound is not None else _Compound()
            compound.add(token)
            continue
        if compound is not None:
            steps.append((combinator, compound))
            combinator, compound = " ", None
        symbol = token.group("combinator")
        if symbol and combinator == ">":
            raise ValueError(f"dangling combinator in selector: {selector!r}")
        if symbol == ">":
            combinator = ">"
        elif symbol == "," and steps:
            groups.append(tuple(steps))
            steps = []
    if compound is not None:
        steps.append((combinator, compound))
    elif combinator == ">":
        raise ValueError(f"dangling combinator in selector: {selector!r}")
    if steps:
        groups.append(tuple(steps))
    return tuple(groups)


def _match_group(root: Element, steps: tuple[Step, ...]) -> list[Element]:
    current = [root]
    for combinator, compound in steps:
        if combinator == ">":
            current = [child for base in current for child in base.children if compound.matches(child)]
            continue
        found: list[Element] = []
        reach = -1
        for base in sorted(current, key=_POSITION) if len(current) > 1 else current:
            if base.pos < reach:
                continue  # nested in a base already searched
            found.extend(compound.below(base))
            reach = base.end
        current = found
    return current


def select(root: Element, selector: str) -> list[Element]:
    """Return descendants of ``root`` matching ``selector``, in document order."""
    groups = _compile(selector)
    if len(groups) == 1:
        results = _match_group(root, groups[0])
    else:
        unique = {element.pos: element for group in groups for element in _match_group(root, group)}
        results = list(unique.values())
    results.sort(key=_POSITION)
    return results
