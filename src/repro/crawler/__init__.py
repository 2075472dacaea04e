"""Privacy-page web crawler implementing the paper's §3.1 strategy."""

from repro.crawler.crawler import (
    MAX_FOOTER_LINKS,
    MAX_PAGES,
    MAX_TOP_LINKS,
    PROBE_PATHS,
    CrawlResult,
    PageRecord,
    PrivacyCrawler,
)
from repro.crawler.links import (
    Link,
    extract_links,
    footer_privacy_links,
    same_site,
    top_privacy_links,
)

__all__ = [
    "MAX_FOOTER_LINKS",
    "MAX_PAGES",
    "MAX_TOP_LINKS",
    "PROBE_PATHS",
    "CrawlResult",
    "PageRecord",
    "PrivacyCrawler",
    "Link",
    "extract_links",
    "footer_privacy_links",
    "same_site",
    "top_privacy_links",
]
