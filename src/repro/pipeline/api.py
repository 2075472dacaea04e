"""Convenience API for annotating a single policy document.

This is the entry point a downstream user wants when they already have a
privacy policy (HTML or plain text) and just need structured annotations —
no crawling, no corpus:

    from repro.pipeline import annotate_policy_html

    record = annotate_policy_html(open("policy.html").read())
    for t in record.types:
        print(t.category, "->", t.descriptor)

For many documents, the batch functions fan the work out over a thread
pool with one deterministically seeded model per document, so results are
identical for any ``workers`` count:

    records = annotate_policies_html({"a.com": html_a, "b.com": html_b},
                                     workers=4)
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.chatbot.models import ChatModel, make_model
from repro.htmlkit import TextDocument, TextLine, html_to_document
from repro.pipeline.cascade import cascade_model_for
from repro.pipeline.docindex import DocumentIndex
from repro.pipeline.records import DomainAnnotations
from repro.pipeline.runner import (
    PipelineOptions,
    _annotate_domain,
    model_for_domain,
)
from repro.pipeline.segmentation import segment_policy


def annotate_policy_html(html: str, model: ChatModel | None = None,
                         options: PipelineOptions | None = None,
                         domain: str = "document") -> DomainAnnotations:
    """Annotate one privacy policy given as HTML."""
    options = options or PipelineOptions()
    return _annotate_document(html_to_document(html), model, options, domain,
                              cascade_model_for(options))


def annotate_policy_text(text: str, model: ChatModel | None = None,
                         options: PipelineOptions | None = None,
                         domain: str = "document") -> DomainAnnotations:
    """Annotate one privacy policy given as plain text."""
    options = options or PipelineOptions()
    return _annotate_document(_text_document(text), model, options, domain,
                              cascade_model_for(options))


def _text_document(text: str) -> TextDocument:
    """One non-blank line of ``text`` per document line, stripped."""
    return TextDocument(lines=[
        TextLine(number=index + 1, text=line.strip())
        for index, line in enumerate(text.splitlines())
        if line.strip()
    ])


def annotate_policies_html(policies: dict[str, str],
                           options: PipelineOptions | None = None,
                           workers: int = 1) -> dict[str, DomainAnnotations]:
    """Annotate many HTML policies, optionally across a thread pool.

    ``policies`` maps a domain (or any stable document id) to its HTML.
    Each document gets its own model seeded from ``(model_seed, domain)``,
    so the output is independent of ``workers`` and of dict order.
    """
    return _annotate_many(policies, html_to_document, options, workers)


def annotate_policies_text(policies: dict[str, str],
                           options: PipelineOptions | None = None,
                           workers: int = 1) -> dict[str, DomainAnnotations]:
    """Annotate many plain-text policies (see :func:`annotate_policies_html`)."""
    return _annotate_many(policies, _text_document, options, workers)


def _annotate_many(policies: dict[str, str], to_document,
                   options: PipelineOptions | None,
                   workers: int) -> dict[str, DomainAnnotations]:
    options = options or PipelineOptions()
    cascade = cascade_model_for(options)
    items = list(policies.items())

    def one(item: tuple[str, str]) -> tuple[str, DomainAnnotations]:
        domain, body = item
        model = model_for_domain(options, domain)
        return domain, _annotate_document(to_document(body), model, options,
                                          domain, cascade)

    if workers <= 1:
        pairs = [one(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(one, items))
    return dict(pairs)


def _annotate_document(document: TextDocument, model: ChatModel | None,
                       options: PipelineOptions, domain: str,
                       cascade) -> DomainAnnotations:
    """Segment one document and run the pipeline's annotate back half.

    Unlike a crawled domain, the document is annotated even when
    segmentation finds no policy sections, and its sector is ``"--"``.
    ``cascade`` is the calling API function's cascade model
    (:func:`~repro.pipeline.cascade.cascade_model_for`), resolved once
    per call.
    """
    if model is None:
        model = make_model(options.model_name, seed=options.model_seed)
    index = DocumentIndex.for_document(document)
    segmented = segment_policy(domain, document, model, index=index)
    return _annotate_domain(domain, "--", segmented, model, options,
                            index=index, cascade=cascade)
