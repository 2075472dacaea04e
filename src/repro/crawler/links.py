"""Link extraction and classification from rendered pages.

The paper's crawler follows links "from the bottom of a website's homepage"
(footer links) and "from the top" of candidate privacy pages. We classify
every anchor by its position — inside a ``<footer>`` (or in the trailing
10% of anchors when no footer element exists) versus anywhere else — and
filter for the word "privacy" in the link text, mirroring §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.htmlkit.dom import Element, parse_html
from repro.web.url import Url, join_url, parse_url

_SKIP_SCHEMES = ("javascript", "mailto", "tel", "data")


@dataclass(frozen=True)
class Link:
    """One resolved anchor."""

    url: str  # absolute
    text: str
    in_footer: bool

    def mentions_privacy(self) -> bool:
        return "privacy" in self.text.lower()


def _is_followable(href: str) -> bool:
    href = href.strip()
    if not href or href.startswith("#"):
        return False
    scheme = href.split(":", 1)[0].lower() if ":" in href else ""
    return scheme not in _SKIP_SCHEMES


def extract_links(html: str, base_url: str) -> list[Link]:
    """All followable links on a page, resolved against ``base_url``."""
    root = parse_html(html)
    return extract_links_from_tree(root, base_url)


def _anchors(root: Element) -> tuple[list[tuple[Element, bool]], bool]:
    """Every anchor under ``root`` in document order, each with whether a
    ``<footer>`` encloses it, and whether the page has a footer at all:
    one depth-first walk that carries the in-footer flag down."""
    anchors: list[tuple[Element, bool]] = []
    has_footer = False
    stack = [(root, False)]
    while stack:
        element, in_footer = stack.pop()
        if element.tag == "a":
            anchors.append((element, in_footer))
        elif element.tag == "footer":
            has_footer = True
        inner = in_footer or element.tag == "footer"
        stack.extend((child, inner) for child in reversed(element.children)
                     if isinstance(child, Element))
    return anchors, has_footer


def extract_links_from_tree(root: Element, base_url: str) -> list[Link]:
    base = parse_url(base_url)
    anchors, has_footer = _anchors(root)
    links: list[Link] = []
    footer_less_cutoff = max(1, int(len(anchors) * 0.9))
    for index, (anchor, enclosed) in enumerate(anchors):
        href = anchor.get("href")
        if not _is_followable(href):
            continue
        try:
            resolved = join_url(base, href)
        except Exception:  # noqa: BLE001 - malformed href: skip the link
            continue
        if not resolved.is_absolute:
            continue
        links.append(
            Link(
                url=str(resolved.without_fragment()),
                text=anchor.text_content().strip(),
                in_footer=(enclosed if has_footer
                           else index >= footer_less_cutoff),
            )
        )
    return links


def footer_privacy_links(links: list[Link], limit: int = 3) -> list[Link]:
    """Up to ``limit`` footer links containing the word "privacy"."""
    found = [link for link in links if link.in_footer and link.mentions_privacy()]
    return found[:limit]


def top_privacy_links(links: list[Link], limit: int = 5) -> list[Link]:
    """Up to ``limit`` non-footer links containing the word "privacy"."""
    found = [link for link in links
             if not link.in_footer and link.mentions_privacy()]
    return found[:limit]


def same_site(url: str, domain: str) -> bool:
    """Whether ``url`` points at ``domain`` (or its ``www.`` alias)."""
    host = parse_url(url).host
    return host == domain or host == f"www.{domain}" or \
        host.removeprefix("www.") == domain
