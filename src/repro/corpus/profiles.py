"""Ground-truth practice profiles for synthetic companies.

For each company we sample which data types it collects (and the specific
descriptors), its collection purposes, retention/protection practices, and
user rights — calibrated to the paper's published per-sector statistics
(:mod:`repro.corpus.calibration`).

Category inclusions use a Gaussian copula: a per-company latent
"privacy-verbosity" factor correlates inclusion across categories while
preserving each category's marginal coverage exactly. This is what gives
the heavy upper tail the paper observes in §5 (13% of companies mentioning
more than 22 of the 34 categories), which independent draws cannot produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

from repro._util.rng import SeedSequence
from repro.corpus import calibration as cal
from repro.corpus.novel import NOVEL_DATA_TYPE_TERMS, NOVEL_PURPOSE_TERMS
from repro.taxonomy import (
    ACCESS_LABELS,
    CHOICE_LABELS,
    DATA_TYPE_TAXONOMY,
    PROTECTION_LABELS,
    PURPOSE_TAXONOMY,
    RETENTION_LABELS,
)

_NORMAL = NormalDist()

#: Latent verbosity mixture: ``(weight, mean, sd)`` per component. A small
#: "discloses everything" component, a verbose majority, a terse group, and
#: a near-silent tail. Tuned (together with the coverage-dependent
#: correlation below) against the §5 category-count distribution.
VERBOSITY_MIXTURE: tuple[tuple[float, float, float], ...] = (
    (0.14, 1.78, 0.32),
    (0.50, 0.40, 0.33),
    (0.31, -0.90, 0.31),
    (0.05, -2.65, 0.30),
)

#: Per-category copula correlation is ``RHO_BASE + RHO_SLOPE * coverage``:
#: widely disclosed categories track the company's verbosity more strongly
#: than niche ones.
RHO_BASE = 0.46
RHO_SLOPE = 0.50
RHO_MAX = 0.95

#: Share of the residual (non-verbosity) variance that is shared within a
#: meta-category. The paper's Bio/health meta coverage (34.5%) sits close
#: to its largest member category (Medical info, 28.3%), which requires
#: strong within-meta nesting; broad metas like Digital behavior show no
#: such nesting. Splitting the noise this way leaves every marginal
#: coverage unchanged.
META_NOISE_SHARE: dict[str, float] = {
    "Bio/health profile": 0.80,
    "Financial/legal profile": 0.25,
}

#: Probability that a covered category additionally mentions one
#: out-of-glossary (zero-shot) term.
NOVEL_TERM_RATE = 0.05

#: Probability that a policy adds negated mentions ("we do not collect X").
NEGATED_MENTION_RATE = 0.22


@dataclass
class RetentionFact:
    """One ground-truth retention statement.

    ``anonymized`` marks indefinite retention that concerns anonymized or
    aggregated data only — the less-concerning case §6 proposes teaching
    the chatbot to ignore.
    """

    label: str  # Limited | Stated | Indefinitely
    period_days: int | None = None
    period_text: str | None = None
    anonymized: bool = False


@dataclass
class CompanyPractices:
    """Everything the generator knows about one company's privacy posture."""

    domain: str
    sector: str
    #: Latent verbosity draw (used by tests; higher = more disclosures).
    verbosity: float
    #: category name -> canonical descriptor names collected.
    data_types: dict[str, list[str]] = field(default_factory=dict)
    #: category name -> novel (out-of-glossary) phrases mentioned.
    novel_data_types: dict[str, list[str]] = field(default_factory=dict)
    #: category name -> purpose descriptor names.
    purposes: dict[str, list[str]] = field(default_factory=dict)
    novel_purposes: dict[str, list[str]] = field(default_factory=dict)
    retention: list[RetentionFact] = field(default_factory=list)
    protection: list[str] = field(default_factory=list)
    choices: list[str] = field(default_factory=list)
    access: list[str] = field(default_factory=list)
    #: (category, descriptor) pairs mentioned only in negated contexts.
    negated_types: list[tuple[str, str]] = field(default_factory=list)

    def has_any_annotation(self) -> bool:
        return bool(
            self.data_types
            or self.purposes
            or self.retention
            or self.protection
            or self.choices
            or self.access
        )


def _lognormal_count(rng, mean: float, sd: float, max_n: int) -> int:
    """Sample a positive integer with approximately the given mean/SD."""
    if max_n <= 1 or mean <= 1.02:
        return 1
    cv2 = (sd / mean) ** 2 if mean > 0 else 0.0
    sigma2 = math.log1p(cv2)
    mu = math.log(mean) - sigma2 / 2.0
    value = rng.lognormvariate(mu, math.sqrt(sigma2))
    return max(1, min(max_n, round(value)))


def _weighted_sample_without_replacement(rng, items, weights, k: int):
    """Sample ``k`` distinct items with probability proportional to weight."""
    chosen = []
    pool = list(zip(items, weights))
    for _ in range(min(k, len(pool))):
        total = sum(w for _, w in pool)
        pick = rng.random() * total
        acc = 0.0
        for index, (item, weight) in enumerate(pool):
            acc += weight
            if pick <= acc:
                chosen.append(item)
                del pool[index]
                break
        else:  # pragma: no cover - float edge
            chosen.append(pool.pop()[0])
    return chosen


def _rho_for_coverage(coverage_pct: float) -> float:
    return min(RHO_MAX, RHO_BASE + RHO_SLOPE * (coverage_pct / 100.0))


def _solve_threshold(p: float, rho: float) -> float:
    """Threshold ``t`` with ``P(rho·z + sqrt(1-rho²)·eps > t) = p``.

    ``z`` follows :data:`VERBOSITY_MIXTURE`; solved by bisection since the
    mixture CDF has no closed-form inverse.
    """
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    c = math.sqrt(1.0 - rho * rho)

    def prob_above(t: float) -> float:
        return sum(
            w * (1.0 - _NORMAL.cdf((t - rho * mu) / math.hypot(rho * s, c)))
            for w, mu, s in VERBOSITY_MIXTURE
        )

    lo, hi = -10.0, 10.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if prob_above(mid) > p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _draw_verbosity(rng) -> float:
    pick = rng.random()
    acc = 0.0
    for weight, mu, sigma in VERBOSITY_MIXTURE:
        acc += weight
        if pick <= acc:
            return rng.gauss(mu, sigma)
    weight, mu, sigma = VERBOSITY_MIXTURE[-1]  # pragma: no cover - float edge
    return rng.gauss(mu, sigma)


class PracticeSampler:
    """Samples :class:`CompanyPractices`, one company at a time.

    Deterministic in ``(seeds, domain)``: the same domain always receives
    the same profile regardless of sampling order.
    """

    def __init__(self, seeds: SeedSequence):
        self.seeds = seeds
        # Pre-solve per-sector inclusion thresholds (and per-row rho) for
        # every category and label.
        self._type_params = self._solve_category_params(cal.DATA_TYPE_TARGETS)
        self._purpose_params = self._solve_category_params(cal.PURPOSE_TARGETS)
        self._label_params = {
            target.label: (
                _rho_for_coverage(target.coverage),
                {
                    code: _solve_threshold(p, _rho_for_coverage(target.coverage))
                    for code, p in cal.label_sector_coverage(target).items()
                },
            )
            for target in cal.LABEL_TARGETS
        }
        self._type_targets = {t.category: t for t in cal.DATA_TYPE_TARGETS}
        self._purpose_targets = {t.category: t for t in cal.PURPOSE_TARGETS}

    @staticmethod
    def _solve_category_params(targets):
        params = {}
        for target in targets:
            rho = _rho_for_coverage(target.coverage)
            coverage = cal.category_sector_coverage(target)
            params[target.category] = (
                rho,
                {code: _solve_threshold(p, rho) for code, p in coverage.items()},
            )
        return params

    # -- public API ----------------------------------------------------------

    def sample(self, domain: str, sector: str) -> CompanyPractices:
        rng = self.seeds.rng("practices", domain)
        z = _draw_verbosity(rng)
        practices = CompanyPractices(domain=domain, sector=sector, verbosity=z)

        self._sample_categories(
            rng, z, sector, practices.data_types, practices.novel_data_types,
            DATA_TYPE_TAXONOMY, self._type_params, self._type_targets,
            NOVEL_DATA_TYPE_TERMS,
        )
        self._sample_categories(
            rng, z, sector, practices.purposes, practices.novel_purposes,
            PURPOSE_TAXONOMY, self._purpose_params, self._purpose_targets,
            NOVEL_PURPOSE_TERMS,
        )
        self._sample_labels(rng, z, sector, practices)
        self._sample_negated(rng, practices)
        return practices

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _include(rng, z: float, rho: float, threshold: float,
                 meta_noise: float = 0.0, meta_share: float = 0.0) -> bool:
        residual_sd = math.sqrt(1.0 - rho * rho)
        if meta_share <= 0.0:
            noise = residual_sd * rng.gauss(0.0, 1.0)
        else:
            shared_sd = residual_sd * math.sqrt(meta_share)
            own_sd = residual_sd * math.sqrt(1.0 - meta_share)
            noise = shared_sd * meta_noise + own_sd * rng.gauss(0.0, 1.0)
        return rho * z + noise > threshold

    def _sample_categories(
        self, rng, z, sector, out, novel_out, taxonomy, params, targets,
        novel_terms,
    ) -> None:
        for meta in taxonomy.meta_categories:
            meta_noise = rng.gauss(0.0, 1.0)
            meta_share = META_NOISE_SHARE.get(meta.name, 0.0)
            for category in meta.categories:
                rho, thresholds = params[category.name]
                if not self._include(rng, z, rho, thresholds[sector],
                                     meta_noise, meta_share):
                    continue
                self._fill_category(rng, sector, out, novel_out, targets,
                                    novel_terms, category)

    def _fill_category(self, rng, sector, out, novel_out, targets,
                       novel_terms, category) -> None:
        """Choose how many and which descriptors a covered category gets."""
        target = targets[category.name]
        anchor = target.anchors().get(sector)
        mean = anchor.mean if anchor and anchor.mean is not None else target.mean
        sd = anchor.sd if anchor and anchor.sd is not None else target.sd
        count = _lognormal_count(rng, mean, sd, len(category.descriptors))
        names = [d.name for d in category.descriptors]
        weights = [d.weight for d in category.descriptors]
        out[category.name] = _weighted_sample_without_replacement(
            rng, names, weights, count
        )
        extras = novel_terms.get(category.name, ())
        if extras and rng.random() < NOVEL_TERM_RATE:
            novel_out[category.name] = [rng.choice(extras)]

    def _sample_labels(self, rng, z, sector, practices: CompanyPractices) -> None:
        retention_names = set(RETENTION_LABELS.names())
        protection_names = set(PROTECTION_LABELS.names())
        choice_names = set(CHOICE_LABELS.names())
        access_names = set(ACCESS_LABELS.names())
        for target in cal.LABEL_TARGETS:
            rho, thresholds = self._label_params[target.label]
            if not self._include(rng, z, rho, thresholds[sector]):
                continue
            if target.label in retention_names:
                fact = RetentionFact(label=target.label)
                if target.label == "Indefinitely":
                    # §6: unlimited retention often concerns anonymized or
                    # aggregated data.
                    fact.anonymized = rng.random() < 0.5
                if target.label == "Stated":
                    days, text, _ = _weighted_choice(
                        rng, cal.STATED_RETENTION_PERIODS,
                        [w for _, _, w in cal.STATED_RETENTION_PERIODS],
                    )
                    fact.period_days = days
                    fact.period_text = text
                practices.retention.append(fact)
            elif target.label in protection_names:
                practices.protection.append(target.label)
            elif target.label in choice_names:
                practices.choices.append(target.label)
            elif target.label in access_names:
                practices.access.append(target.label)

    def _sample_negated(self, rng, practices: CompanyPractices) -> None:
        if rng.random() >= NEGATED_MENTION_RATE:
            return
        categories = DATA_TYPE_TAXONOMY.categories()
        for _ in range(rng.choice([1, 1, 2])):
            category = rng.choice(categories)
            collected = set(practices.data_types.get(category.name, ()))
            candidates = [d.name for d in category.descriptors
                          if d.name not in collected]
            if candidates:
                practices.negated_types.append(
                    (category.name, rng.choice(candidates))
                )


def _weighted_choice(rng, items, weights):
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if pick <= acc:
            return item
    return items[-1]  # pragma: no cover - float edge
