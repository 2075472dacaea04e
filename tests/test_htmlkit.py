"""Tests for the HTML DOM parser, text renderer, and heading machinery."""

import gc
import weakref

from hypothesis import given, strategies as st

from repro.crawler.links import extract_links_from_tree
from repro.htmlkit import (
    BOLD_HEADING_LEVEL,
    build_sections,
    html_to_document,
    html_to_text,
    parse_html,
    render_toc,
    table_of_contents,
)


class TestParser:
    def test_basic_tree(self):
        root = parse_html("<div><p>hello</p></div>")
        p = root.find("p")
        assert p is not None
        assert p.text_content() == "hello"

    def test_attributes_lowercased_and_unescaped(self):
        root = parse_html('<a HREF="/x?a=1&amp;b=2">link</a>')
        assert root.find("a").get("href") == "/x?a=1&b=2"

    def test_unclosed_tags_recovered(self):
        root = parse_html("<div><p>one<p>two</div>")
        paragraphs = root.find_all("p")
        assert [p.text_content() for p in paragraphs] == ["one", "two"]

    def test_stray_end_tag_ignored(self):
        root = parse_html("<div>text</span></div>")
        assert root.find("div").text_content() == "text"

    def test_script_content_not_in_text(self):
        root = parse_html("<body><script>var x = '<p>';</script>hi</body>")
        assert root.find("body").text_content().strip() == "hi"

    def test_void_elements_do_not_nest(self):
        root = parse_html("<p>a<br>b</p>")
        assert root.find("p").text_content() == "ab"

    def test_implicit_li_close(self):
        root = parse_html("<ul><li>one<li>two</ul>")
        items = root.find_all("li")
        assert len(items) == 2
        assert items[0].text_content() == "one"

    def test_footer_links_through_nested_footers(self):
        """An anchor is in the footer when any enclosing element is a
        ``<footer>``, however deep and however nested the footers; an
        anchor that only encloses one, or follows it, is not."""
        root = parse_html(
            "<header><a href='/top'>top</a></header>"
            "<footer><div><a href='/outer'>outer</a>"
            "<footer><p><a href='/inner'>inner</a></p></footer>"
            "<a href='/after'>after</a></div></footer>"
            "<a href='/wrap'><footer>wrapped</footer></a>"
            "<a href='/tail'>tail</a>")
        links = extract_links_from_tree(root, "https://example.com/")
        assert [(link.url, link.in_footer) for link in links] == [
            ("https://example.com/top", False),
            ("https://example.com/outer", True),
            ("https://example.com/inner", True),
            ("https://example.com/after", True),
            ("https://example.com/wrap", False),
            ("https://example.com/tail", False)]

    def test_footer_less_page_keeps_the_trailing_tenth(self):
        """Without a ``<footer>``, the last 10% of anchors in document
        order count as the footer."""
        html = "".join(f"<div><a href='/p{i}'>p{i}</a></div>"
                       for i in range(20))
        links = extract_links_from_tree(parse_html(html),
                                        "https://example.com/")
        assert [link.in_footer for link in links] == [False] * 18 + [True] * 2

    def test_parsed_tree_freed_by_reference_counting(self):
        """No node refers back to its parent, so a parsed page is freed
        the moment its last reference goes, without the cycle
        collector."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            root = parse_html("<body><footer><div><a href='/x'>l</a>"
                              "</div></footer><p>text</p></body>")
            text = weakref.ref(root.find("p").children[0])
            ref = weakref.ref(root)
            del root
            assert ref() is None
            assert text() is None
        finally:
            if enabled:
                gc.enable()

    @given(st.text(max_size=300))
    def test_never_raises_on_arbitrary_input(self, text):
        parse_html(text)


class TestRenderer:
    def test_block_elements_create_lines(self):
        doc = html_to_document("<p>one</p><p>two</p>")
        assert [l.text for l in doc.lines] == ["one", "two"]

    def test_inline_elements_stay_on_line(self):
        text = html_to_text("<p>a <span>b</span> <em>c</em></p>")
        assert text == "a b c"

    def test_internal_newlines_become_spaces(self):
        doc = html_to_document("<p>one\ntwo\nthree</p>")
        assert doc.lines[0].text == "one two three"

    def test_heading_levels_tagged(self):
        doc = html_to_document("<h2>Head</h2><p>body</p>")
        assert doc.lines[0].heading_level == 2
        assert doc.lines[1].heading_level is None

    def test_standalone_bold_is_heading(self):
        doc = html_to_document("<div><strong>Bold Head</strong></div>")
        assert doc.lines[0].heading_level == BOLD_HEADING_LEVEL

    def test_inline_bold_is_not_heading(self):
        doc = html_to_document("<p>normal <b>bold</b> more</p>")
        assert doc.lines[0].heading_level is None

    def test_display_none_dropped(self):
        assert "secret" not in html_to_text('<p style="display:none">secret</p>')

    def test_hidden_attribute_dropped(self):
        assert "secret" not in html_to_text("<div hidden>secret</div>")

    def test_closed_details_dropped(self):
        html = "<details><summary>More</summary><p>secret</p></details>"
        assert "secret" not in html_to_text(html)

    def test_open_details_rendered(self):
        html = "<details open><summary>More</summary><p>visible</p></details>"
        assert "visible" in html_to_text(html)

    def test_ordered_list_markers(self):
        text = html_to_text("<ol><li>first</li><li>second</li></ol>")
        assert "1. first" in text
        assert "2. second" in text

    def test_unordered_list_markers(self):
        assert "* item" in html_to_text("<ul><li>item</li></ul>")

    def test_numbered_text_format(self):
        doc = html_to_document("<p>a</p><p>b</p>")
        assert doc.numbered_text() == "[1] a\n[2] b"

    def test_no_empty_lines(self):
        doc = html_to_document("<p>  </p><div></div><p>x</p>")
        assert all(line.text for line in doc.lines)

    def test_word_count(self):
        doc = html_to_document("<p>one two</p><p>three</p>")
        assert doc.word_count() == 3

    def test_slice_text(self):
        doc = html_to_document("<p>a</p><p>b</p><p>c</p>")
        assert doc.slice_text(2, 3) == "b\nc"


class TestSections:
    HTML = (
        "<h1>Title</h1><p>intro</p>"
        "<h2>First</h2><p>alpha</p><p>beta</p>"
        "<h2>Second</h2><p>gamma</p>"
    )

    def test_section_boundaries(self):
        doc = html_to_document(self.HTML)
        sections = build_sections(doc)
        texts = [(s.heading_text, s.body_text(doc)) for s in sections]
        assert ("Title", "intro") in texts
        assert ("First", "alpha\nbeta") in texts
        assert ("Second", "gamma") in texts

    def test_preamble_without_heading(self):
        doc = html_to_document("<p>pre</p><h2>H</h2><p>body</p>")
        sections = build_sections(doc)
        assert sections[0].heading is None
        assert sections[0].body_text(doc) == "pre"

    def test_empty_document(self):
        doc = html_to_document("")
        assert build_sections(doc) == []

    def test_toc_depths_follow_levels(self):
        html = "<h1>A</h1><h2>B</h2><div><b>C</b></div>"
        doc = html_to_document(html)
        toc = table_of_contents(doc)
        assert [e.depth for e in toc] == [0, 1, 2]

    def test_toc_render_contains_line_numbers(self):
        doc = html_to_document("<h1>A</h1>")
        assert render_toc(table_of_contents(doc)) == "[1] A"
