"""Synthetic e-commerce product world.

This is the substrate substituting for JD.com's proprietary catalog + search
log.  The world plants the exact distributional phenomena the
paper measures in §3:

* **Feature-importance inhomogeneity (Fig. 2)** — every top-category (TC)
  owns a utility weight vector over the numeric signals; sub-categories (SC)
  inherit it with small jitter.  Named categories follow the paper's
  observations: Clothing/Sports weigh ``good_comments_ratio`` heavily, while
  Foods/Computer/Electronics weigh ``log_sales`` heavily.
* **Brand concentration (Fig. 3)** — each TC's brand market follows a Zipf
  law whose exponent varies by TC: Electronics-like markets are concentrated
  (top 80% of sales in ~2% of brands), Sports-like markets dispersed (~10%).
* **Category size skew (Fig. 5, Table 3)** — TC and SC traffic weights are
  Zipf-distributed so small categories exist and suffer data scarcity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hierarchy import Taxonomy
from .config import WorldConfig
from .schema import NUMERIC_FEATURE_NAMES, FeatureSpec, build_feature_spec

__all__ = ["SyntheticWorld", "CategoryProfile"]

_NUM_SIGNALS = len(NUMERIC_FEATURE_NAMES)
# Column indices into the signal matrix.
_PRICE, _SALES, _COMMENTS, _BRANDPOP, _CTR, _RELEVANCE = range(_NUM_SIGNALS)

# Named TC overrides implementing the paper's §3 narrative.
_COMMENT_DRIVEN = {"Clothing", "Sports", "Shoes", "Jewelry"}
_SALES_DRIVEN = {"Foods", "Computer", "Electronics", "Mobile Phone", "Smart Devices"}
_CONCENTRATED_BRANDS = {"Electronics", "Mobile Phone", "Computer", "Smart Devices"}
_DISPERSED_BRANDS = {"Sports", "Clothing", "Shoes"}


# Feature-interaction terms entering the utility: (signal a, signal b).
# Per-TC weights on these make the label a *nonlinear*, category-specific
# function of the observed features — a monolithic tower must spend capacity
# per category to fit them, while gated experts can specialize (§1).
INTERACTION_PAIRS = ((_PRICE, _BRANDPOP), (_RELEVANCE, _COMMENTS), (_SALES, _CTR))


@dataclass
class CategoryProfile:
    """Per-TC generative parameters."""

    tc_id: int
    utility_weights: np.ndarray  # (num_signals,) — drives purchase decisions
    interaction_weights: np.ndarray  # (len(INTERACTION_PAIRS),)
    brand_zipf: float            # brand market concentration
    price_mu: float              # log-price location
    price_sigma: float           # log-price scale
    traffic_weight: float        # relative query volume


@dataclass
class SyntheticWorld:
    """Catalog + generative parameters; build with :meth:`generate`."""

    taxonomy: Taxonomy
    config: WorldConfig
    spec: FeatureSpec
    profiles: dict[int, CategoryProfile]
    sc_weights: np.ndarray        # (num_sc,) utility jittered per SC
    sc_utility: np.ndarray        # (num_sc, num_signals)
    sc_interaction: np.ndarray    # (num_sc, len(INTERACTION_PAIRS))
    sc_traffic: np.ndarray        # (num_sc,) query volume weights, sums to 1
    # Product table (parallel arrays).
    product_sc: np.ndarray
    product_tc: np.ndarray
    product_brand: np.ndarray     # global brand ids
    product_quality: np.ndarray   # latent quality in [0, 1]-ish (z-scored)
    product_price_z: np.ndarray
    product_log_sales: np.ndarray      # standardized (the model feature)
    product_raw_log_sales: np.ndarray  # unstandardized log volume (Fig. 3)
    product_comments: np.ndarray
    product_brand_pop: np.ndarray
    num_brands: int
    # SC id -> array of product row indices (for candidate sampling).
    _products_by_sc: dict[int, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, taxonomy: Taxonomy, config: WorldConfig | None = None) -> "SyntheticWorld":
        """Build a world from a taxonomy and config."""
        config = config or WorldConfig()
        rng = np.random.default_rng(config.seed)
        profiles = cls._build_profiles(taxonomy, config, rng)
        sc_utility, sc_interaction, sc_traffic = cls._build_sc_params(
            taxonomy, config, profiles, rng)
        world = cls._build_products(taxonomy, config, profiles, sc_utility,
                                    sc_interaction, sc_traffic, rng)
        return world

    @staticmethod
    def _build_profiles(taxonomy: Taxonomy, config: WorldConfig,
                        rng: np.random.Generator) -> dict[int, CategoryProfile]:
        """Draw generative parameters hierarchically: semantic group → TC.

        Utility behaviour is organized in three levels, mirroring the
        structure the paper observes and exploits:

        * **semantic group** (Table 4) sets the family: fashion groups are
          comment-driven, electronics groups sales/brand-driven, daily
          necessities in between, each with its own interaction profile;
        * **top-category** adds moderate jitter around its group;
        * **sub-category** adds small jitter around its TC (built in
          :meth:`_build_sc_params`).

        This is what makes semantically similar categories able to *share*
        experts (Fig. 6 clustering, Fig. 5 small-category transfer): their
        purchase behaviour genuinely overlaps.
        """
        low_z, high_z = config.brand_zipf_range
        profiles: dict[int, CategoryProfile] = {}
        num_tc = taxonomy.num_top_categories
        # Zipf traffic over a random permutation of TCs so size is not
        # correlated with semantic group.
        ranks = rng.permutation(num_tc) + 1
        traffic = ranks.astype(np.float64) ** (-config.tc_size_zipf)

        # Group-level bases: comment-vs-sales mix and interaction profile.
        group_mix_range = {
            "fashion": (0.70, 0.95),
            "electronics": (0.05, 0.30),
            "daily_necessities": (0.35, 0.65),
        }
        groups = {tc.semantic_group for tc in taxonomy.top_categories}
        group_mix: dict[str, float] = {}
        group_interactions: dict[str, np.ndarray] = {}
        group_price: dict[str, float] = {}
        for group in sorted(groups):
            low, high = group_mix_range.get(group, (0.2, 0.8))
            group_mix[group] = float(rng.uniform(low, high))
            group_interactions[group] = rng.uniform(-1.3, 1.3,
                                                    size=len(INTERACTION_PAIRS))
            group_price[group] = float(rng.uniform(-0.9, 0.1))

        coupling = float(np.clip(config.group_coupling, 0.0, 1.0))
        for index, tc in enumerate(taxonomy.top_categories):
            # Interpolate between the group base profile and an independent
            # per-TC draw (see WorldConfig.group_coupling): family membership
            # stays visible for transfer (Fig. 5/6) while each TC keeps the
            # idiosyncrasy that defeats a monolithic model (Table 2/3).
            own_mix = float(rng.uniform(0.05, 0.95))
            mix = float(np.clip(
                coupling * group_mix[tc.semantic_group] + (1 - coupling) * own_mix
                + rng.normal(0, 0.05), 0.02, 0.98))
            if tc.name in _COMMENT_DRIVEN:
                mix = max(mix, float(rng.uniform(0.75, 0.95)))
            elif tc.name in _SALES_DRIVEN:
                mix = min(mix, float(rng.uniform(0.05, 0.25)))
            weights = np.zeros(_NUM_SIGNALS)
            weights[_COMMENTS] = 0.25 + 1.5 * mix
            weights[_SALES] = 0.25 + 1.5 * (1.0 - mix)
            weights[_BRANDPOP] = 0.15 + 1.0 * (1.0 - mix) + rng.normal(0, 0.05)
            weights[_PRICE] = (coupling * group_price[tc.semantic_group]
                               + (1 - coupling) * rng.uniform(-0.9, 0.1))
            weights[_CTR] = rng.uniform(0.4, 0.8)
            weights[_RELEVANCE] = rng.uniform(1.0, 1.3)
            own_interactions = rng.uniform(-1.2, 1.2, size=len(INTERACTION_PAIRS))
            interactions = (coupling * group_interactions[tc.semantic_group]
                            + (1 - coupling) * own_interactions
                            + rng.normal(0, 0.1, size=len(INTERACTION_PAIRS)))

            if tc.name in _CONCENTRATED_BRANDS:
                zipf = float(rng.uniform(high_z - 0.4, high_z))
            elif tc.name in _DISPERSED_BRANDS:
                zipf = float(rng.uniform(low_z, low_z + 0.25))
            else:
                zipf = float(rng.uniform(low_z, high_z))

            profiles[tc.tc_id] = CategoryProfile(
                tc_id=tc.tc_id,
                utility_weights=weights,
                interaction_weights=interactions,
                brand_zipf=zipf,
                price_mu=float(rng.uniform(2.0, 6.5)),
                price_sigma=float(rng.uniform(0.3, 0.9)),
                traffic_weight=float(traffic[index]),
            )
        return profiles

    @staticmethod
    def _build_sc_params(taxonomy: Taxonomy, config: WorldConfig,
                         profiles: dict[int, CategoryProfile],
                         rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        num_sc = taxonomy.max_sc_id() + 1
        sc_utility = np.zeros((num_sc, _NUM_SIGNALS))
        sc_interaction = np.zeros((num_sc, len(INTERACTION_PAIRS)))
        sc_traffic = np.zeros(num_sc)
        for tc in taxonomy.top_categories:
            children = taxonomy.children_of(tc.tc_id)
            profile = profiles[tc.tc_id]
            child_ranks = rng.permutation(len(children)) + 1
            child_weights = child_ranks.astype(np.float64) ** (-config.sc_size_zipf)
            child_weights /= child_weights.sum()
            for sc_id, weight in zip(children, child_weights):
                jitter = rng.normal(0.0, config.intra_tc_jitter, size=_NUM_SIGNALS)
                sc_utility[sc_id] = profile.utility_weights + jitter
                sc_interaction[sc_id] = profile.interaction_weights + rng.normal(
                    0.0, config.intra_tc_jitter, size=len(INTERACTION_PAIRS))
                sc_traffic[sc_id] = profile.traffic_weight * weight
        total = sc_traffic.sum()
        if total <= 0:
            raise ValueError("taxonomy produced zero traffic")
        return sc_utility, sc_interaction, sc_traffic / total

    @classmethod
    def _build_products(cls, taxonomy: Taxonomy, config: WorldConfig,
                        profiles: dict[int, CategoryProfile],
                        sc_utility: np.ndarray, sc_interaction: np.ndarray,
                        sc_traffic: np.ndarray,
                        rng: np.random.Generator) -> "SyntheticWorld":
        sc_list, tc_list, brand_list = [], [], []
        quality_list, price_list, sales_list, comments_list, brandpop_list = [], [], [], [], []
        brand_offset = 0
        # Per-TC brand markets.
        tc_brand_offsets: dict[int, int] = {}
        tc_brand_shares: dict[int, np.ndarray] = {}
        tc_brand_quality: dict[int, np.ndarray] = {}
        for tc in taxonomy.top_categories:
            profile = profiles[tc.tc_id]
            shares = (np.arange(1, config.brands_per_tc + 1, dtype=np.float64)
                      ** (-profile.brand_zipf))
            shares /= shares.sum()
            tc_brand_offsets[tc.tc_id] = brand_offset
            tc_brand_shares[tc.tc_id] = shares
            # Popular brands are slightly better on average (quality gradient).
            tc_brand_quality[tc.tc_id] = (
                0.35 * (np.log(shares) - np.log(shares).mean()) / max(np.log(shares).std(), 1e-9)
                + rng.normal(0, 0.6, size=config.brands_per_tc))
            brand_offset += config.brands_per_tc
        num_brands = brand_offset

        for sc in taxonomy.sub_categories:
            profile = profiles[sc.tc_id]
            relative = sc_traffic[sc.sc_id]
            count = max(config.min_products_per_sc,
                        int(round(relative * config.products_per_weight * taxonomy.num_sub_categories)))
            shares = tc_brand_shares[sc.tc_id]
            local_brands = rng.choice(config.brands_per_tc, size=count, p=shares)
            brand_quality = tc_brand_quality[sc.tc_id][local_brands]
            quality = 0.7 * brand_quality + rng.normal(0, 0.7, size=count)
            log_price = rng.normal(profile.price_mu, profile.price_sigma, size=count)
            price_z = (log_price - profile.price_mu) / max(profile.price_sigma, 1e-9)
            # True sales volume: driven by brand share and quality.  The 0.3
            # exponent on the share, combined with share-proportional product
            # counts per brand, yields brand-level volume ∝ share^1.3 — so
            # the per-TC Zipf exponents translate into clearly ordered Fig. 3
            # concentration levels (top 80% of sales in ~2% of brands for
            # Electronics-like markets vs ~10-20% for Sports-like ones).
            log_sales = (0.3 * np.log(shares[local_brands] * len(shares))
                         + 0.5 * quality + rng.normal(0, 0.6, size=count))
            comments = np.clip(
                rng.beta(6, 2, size=count) + 0.08 * quality, 0.02, 0.999)
            brand_pop = np.log(shares[local_brands] * len(shares))

            sc_list.append(np.full(count, sc.sc_id, dtype=np.int64))
            tc_list.append(np.full(count, sc.tc_id, dtype=np.int64))
            brand_list.append(local_brands + tc_brand_offsets[sc.tc_id])
            quality_list.append(quality)
            price_list.append(price_z)
            sales_list.append(log_sales)
            comments_list.append(comments)
            brandpop_list.append(brand_pop)

        product_sc = np.concatenate(sc_list)
        order_by_sc: dict[int, np.ndarray] = {}
        for sc in taxonomy.sub_categories:
            order_by_sc[sc.sc_id] = np.flatnonzero(product_sc == sc.sc_id)

        def _standardize(x: np.ndarray) -> np.ndarray:
            return (x - x.mean()) / max(x.std(), 1e-9)

        world = cls(
            taxonomy=taxonomy,
            config=config,
            spec=build_feature_spec(
                num_sub_categories=taxonomy.max_sc_id() + 1,
                num_top_categories=taxonomy.max_tc_id() + 1,
                num_brands=num_brands,
                num_user_segments=config.num_user_segments,
                num_query_buckets=config.num_query_buckets,
            ),
            profiles=profiles,
            sc_weights=sc_traffic,
            sc_utility=sc_utility,
            sc_interaction=sc_interaction,
            sc_traffic=sc_traffic,
            product_sc=product_sc,
            product_tc=np.concatenate(tc_list),
            product_brand=np.concatenate(brand_list),
            product_quality=np.concatenate(quality_list),
            product_price_z=np.concatenate(price_list),
            product_log_sales=_standardize(np.concatenate(sales_list)),
            product_raw_log_sales=np.concatenate(sales_list),
            product_comments=np.concatenate(comments_list),
            product_brand_pop=_standardize(np.concatenate(brandpop_list)),
            num_brands=num_brands,
        )
        world._products_by_sc = order_by_sc
        return world

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_products(self) -> int:
        return int(self.product_sc.shape[0])

    def products_in_sc(self, sc_id: int) -> np.ndarray:
        """Row indices of products in a sub-category."""
        return self._products_by_sc.get(sc_id, np.empty(0, dtype=np.int64))

    def product_signal_matrix(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), num_signals) matrix of *true* item-side signals.

        The two-sided columns (historical_ctr, relevance) are zero here;
        they are filled per query-item pair by the session simulator.
        """
        rows = np.asarray(rows, dtype=np.int64)
        signals = np.zeros((rows.shape[0], _NUM_SIGNALS))
        signals[:, _PRICE] = self.product_price_z[rows]
        signals[:, _SALES] = self.product_log_sales[rows]
        signals[:, _COMMENTS] = self.product_comments[rows]
        signals[:, _BRANDPOP] = self.product_brand_pop[rows]
        return signals

    def brand_sales_by_tc(self) -> dict[int, dict[int, float]]:
        """Per-TC map of brand id → total sales volume (for Fig. 3)."""
        result: dict[int, dict[int, float]] = {}
        sales = np.exp(np.clip(self.product_raw_log_sales, None, 20.0))
        for tc in self.taxonomy.top_categories:
            mask = self.product_tc == tc.tc_id
            brands = self.product_brand[mask]
            volume = sales[mask]
            agg: dict[int, float] = {}
            for brand, vol in zip(brands, volume):
                agg[int(brand)] = agg.get(int(brand), 0.0) + float(vol)
            result[tc.tc_id] = agg
        return result

    def brand_sales_by_sc(self, tc_id: int) -> dict[int, dict[int, float]]:
        """Per-SC (within one TC) map of brand id → total sales (Fig. 3b)."""
        result: dict[int, dict[int, float]] = {}
        sales = np.exp(np.clip(self.product_raw_log_sales, None, 20.0))
        for sc_id in self.taxonomy.children_of(tc_id):
            rows = self.products_in_sc(sc_id)
            agg: dict[int, float] = {}
            for brand, vol in zip(self.product_brand[rows], sales[rows]):
                agg[int(brand)] = agg.get(int(brand), 0.0) + float(vol)
            result[sc_id] = agg
        return result
