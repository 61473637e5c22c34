"""Tests for the HTML parser and CSS selector engine."""

import pytest

from repro.web.dom import Element, parse_html, select

SAMPLE = """
<html><head><title>Sample</title></head>
<body>
  <div id="main" class="wrap outer">
    <h1 class="bot-title">MegaBot</h1>
    <ul id="permission-list">
      <li class="permission-item">administrator</li>
      <li class="permission-item">send messages</li>
    </ul>
    <div class="links">
      <a id="website-link" rel="website" href="https://megabot.sim/">Website</a>
      <a id="github-link" rel="github" href="https://github.sim/dev/megabot">GitHub</a>
      <a class="nav-link" href="/privacy">Privacy Policy</a>
    </div>
  </div>
  <footer><p>© 2022</p><span id="note" title="a b" data-x="a,b" data-rule="x>y">note</span></footer>
</body></html>
"""


@pytest.fixture
def doc() -> Element:
    return parse_html(SAMPLE)


class TestParsing:
    def test_title_text(self, doc):
        assert doc.select_one("title").text == "Sample"

    def test_void_elements_do_not_swallow_siblings(self):
        doc = parse_html("<p>a<br>b</p><p>c</p>")
        paragraphs = doc.find_all("p")
        assert len(paragraphs) == 2
        assert paragraphs[0].text == "ab"

    def test_unclosed_tags_tolerated(self):
        doc = parse_html("<div><p>one<p>two</div><span>after</span>")
        assert doc.select_one("span").text == "after"

    def test_stray_end_tag_ignored(self):
        doc = parse_html("</div><p>ok</p>")
        assert doc.select_one("p").text == "ok"

    def test_attributes_parsed(self, doc):
        anchor = doc.select_one("#website-link")
        assert anchor.get("href") == "https://megabot.sim/"
        assert anchor.get("rel") == "website"
        assert anchor.get("missing") is None

    def test_entities_decoded(self):
        doc = parse_html("<p>a &amp; b</p>")
        assert doc.select_one("p").text == "a & b"

    def test_text_normalises_whitespace(self, doc):
        assert doc.select_one("h1").text == "MegaBot"

    def test_self_closing_tag(self):
        doc = parse_html('<div><img src="x.png"/><p>after</p></div>')
        assert doc.select_one("img").get("src") == "x.png"
        assert doc.select_one("p").text == "after"


class TestSelectors:
    def test_by_tag(self, doc):
        assert len(doc.select("li")) == 2

    def test_by_id(self, doc):
        assert doc.select_one("#main").tag == "div"

    def test_by_class(self, doc):
        assert doc.select_one(".bot-title").text == "MegaBot"

    def test_multi_class_element(self, doc):
        assert doc.select_one(".wrap.outer").id == "main"

    def test_compound_tag_and_class(self, doc):
        assert len(doc.select("li.permission-item")) == 2
        assert doc.select("div.permission-item") == []

    def test_attribute_presence(self, doc):
        assert len(doc.select("a[rel]")) == 2

    def test_attribute_equals(self, doc):
        cases = {
            "a[rel=github]": "github-link",
            'span[title="a b"]': "note",
            'span[data-x="a,b"]': "note",
            "span[data-rule='x>y']": "note",
        }
        for selector, expected_id in cases.items():
            assert [node.id for node in doc.select(selector)] == [expected_id], selector

    def test_attribute_prefix(self, doc):
        assert doc.select_one('a[href^="https://github"]').id == "github-link"

    def test_attribute_contains(self, doc):
        assert doc.select_one('a[href*="megabot.sim"]').id == "website-link"

    def test_attribute_suffix(self, doc):
        assert doc.select_one('a[href$="/privacy"]').text == "Privacy Policy"

    def test_attribute_dash_match(self):
        doc = parse_html('<p lang="fr">1</p><p lang="en">2</p><p lang="en-US">3</p><p lang="english">4</p>')
        assert [node.text for node in doc.select("p[lang|=en]")] == ["2", "3"]
        assert doc.select('p[lang|="fr"]')[0].text == "1"

    @pytest.mark.parametrize("selector", ["p[lang!=en]", "p[lang==en]", "p[lang%=en]"])
    def test_unknown_attribute_operator_raises(self, doc, selector):
        with pytest.raises(ValueError):
            doc.select(selector)

    def test_descendant_combinator(self, doc):
        assert len(doc.select("#main li")) == 2
        assert doc.select("footer li") == []

    def test_child_combinator(self, doc):
        assert len(doc.select("ul > li")) == 2
        assert doc.select("#main > li") == []

    def test_group_selector(self, doc):
        results = doc.select("h1, footer p")
        assert [node.tag for node in results] == ["h1", "p"]
        quoted = doc.select('footer > span[title="a b"], h1, footer [data-x="a,b"]')
        assert [node.tag for node in quoted] == ["h1", "span"]

    def test_universal_selector(self, doc):
        assert len(doc.select("#permission-list *")) == 2

    def test_document_order_and_dedup(self, doc):
        results = doc.select("a, a[rel]")
        assert len(results) == 3  # no duplicates
        assert [node.id for node in results[:2]] == ["website-link", "github-link"]

    def test_invalid_selector_raises(self, doc):
        for selector in ("!!!", "a >", "a > > b", "ul >, li", '[title="unclosed]'):
            with pytest.raises(ValueError):
                doc.select(selector)


class TestElementHelpers:
    def test_links(self, doc):
        links = doc.select_one("#main").links()
        assert "https://megabot.sim/" in links
        assert "/privacy" in links

    def test_classes_frozen_set(self, doc):
        assert doc.select_one("#main").classes == {"wrap", "outer"}

    def test_iter_includes_self(self, doc):
        main = doc.select_one("#main")
        assert main in list(main.iter())

    def test_own_text_excludes_children(self):
        doc = parse_html("<div>own<p>child</p></div>")
        div = doc.select_one("div")
        assert div.own_text.strip() == "own"
        assert div.text == "own child"

    def test_repr_mentions_id_and_class(self, doc):
        text = repr(doc.select_one("#main"))
        assert "#main" in text and "wrap" in text
