"""A forgiving HTML DOM built on the stdlib ``html.parser``.

The paper's pipeline uses Playwright to obtain rendered HTML and the
``inscriptis`` library to convert it to text. We implement both halves from
scratch: this module parses (possibly malformed) HTML into a light-weight
element tree that the renderer (:mod:`repro.htmlkit.render`), the heading
extractor, and the crawler's link extractor all share. Nodes hold no
reference to their parent, so a parsed tree holds no reference cycle
and is freed by reference counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Tags whose still-open instance is implicitly closed when the same tag (or a
# sibling-level tag) starts. Mirrors browser recovery for the common cases.
_IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "p": frozenset({"p", "div", "ul", "ol", "table", "section", "article",
                    "h1", "h2", "h3", "h4", "h5", "h6", "blockquote"}),
    "td": frozenset({"td", "th", "tr"}),
    "th": frozenset({"td", "th", "tr"}),
    "tr": frozenset({"tr"}),
    "option": frozenset({"option"}),
}

_RAW_TEXT_TAGS = frozenset({"script", "style"})


@dataclass
class TextNode:
    """A run of character data."""

    text: str


@dataclass
class Element:
    """An HTML element with attributes and children."""

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["Element | TextNode"] = field(default_factory=list)

    # -- tree construction -------------------------------------------------

    def append(self, node: "Element | TextNode") -> None:
        self.children.append(node)

    # -- queries -----------------------------------------------------------

    def iter(self):
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find_all(self, *tags: str) -> list["Element"]:
        """All descendant elements whose tag is in ``tags``."""
        wanted = set(tags)
        return [el for el in self.iter() if el.tag in wanted]

    def find(self, tag: str) -> "Element | None":
        for el in self.iter():
            if el.tag == tag:
                return el
        return None

    def get(self, attr: str, default: str = "") -> str:
        return self.attrs.get(attr, default)

    def text_content(self) -> str:
        """Concatenated character data of all descendants (no layout)."""
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.text)
            elif child.tag not in _RAW_TEXT_TAGS:
                child._collect_text(parts)

    def classes(self) -> list[str]:
        return self.get("class").split()


class _TreeBuilder(HTMLParser):
    """Builds an :class:`Element` tree, recovering from malformed markup."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self._stack: list[Element] = [self.root]
        self._raw_depth = 0

    # -- helpers -----------------------------------------------------------

    @property
    def _top(self) -> Element:
        return self._stack[-1]

    def _implicitly_close(self, tag: str) -> None:
        for open_tag, closers in _IMPLICIT_CLOSERS.items():
            if tag in closers and self._top.tag == open_tag:
                self._stack.pop()
                return

    # -- HTMLParser callbacks ------------------------------------------------

    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        if self._raw_depth:
            return
        self._implicitly_close(tag)
        element = Element(tag, {k.lower(): unescape(v or "") for k, v in attrs})
        self._top.append(element)
        if tag in _RAW_TEXT_TAGS:
            self._raw_depth += 1
            self._stack.append(element)
        elif tag not in VOID_ELEMENTS:
            self._stack.append(element)

    def handle_startendtag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        if self._raw_depth:
            return
        element = Element(tag, {k.lower(): unescape(v or "") for k, v in attrs})
        self._top.append(element)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in VOID_ELEMENTS:
            return
        # Pop back to the nearest matching open tag; ignore stray end tags.
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                if tag in _RAW_TEXT_TAGS:
                    self._raw_depth = max(0, self._raw_depth - 1)
                del self._stack[index:]
                return

    def handle_data(self, data: str) -> None:
        if not data:
            return
        if self._raw_depth:
            # Keep raw script/style contents attached but inert.
            self._top.append(TextNode(data))
            return
        self._top.append(TextNode(data))


def parse_html(html: str) -> Element:
    """Parse an HTML string into an element tree rooted at ``<html>``.

    The parser is forgiving: unclosed tags, stray end tags, and unquoted
    attributes all produce a usable tree rather than raising.
    """
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root
