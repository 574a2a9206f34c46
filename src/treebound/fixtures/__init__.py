"""Registry of the bundled example systems, certificates and gadgets.

Each entry names the counted family of vertex subsets, points at bundled
data files, and records the expected certified constants as claims that the
test suite checks exactly.  Long runs (hours at desk scale) are registered
but flagged, and skipped unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    system: str
    automaton: Optional[str] = None
    certificate: Optional[str] = None
    gadget: Optional[str] = None
    gadget_size: Optional[int] = None
    # (selections, vertices): a periodic block admitting `selections`
    # choices per `vertices` tree vertices; a 1x1 transfer matrix
    direct_count: Optional[Tuple[int, int]] = None
    alpha_spec: Optional[str] = None      # CLI grammar for the scaling value
    claim: str = ""                       # the certified statement, human form
    search_seed_file: Optional[str] = None  # extra seeds the search needs
    slow_search: bool = False             # long reproduction run; flagged


FIXTURES: Tuple[Fixture, ...] = (
    Fixture(
        name="indep_dom",
        description="independent dominating sets (= maximal independent sets)",
        system="indep_dom.system",
        automaton="indep_dom.automaton",
        certificate="indep_dom.cert",
        alpha_spec="root(x^2-2,1,2)",
        claim="count(n) <= 2^(n/2), sharp up to the factor sqrt(2)",
    ),
    Fixture(
        name="total_perfect_dom",
        description="total perfect dominating sets (every vertex has exactly "
                    "one neighbor inside)",
        system="total_perfect_dom.system",
        certificate="total_perfect_dom.cert",
        direct_count=(2 ** 27 * 7, 85),
        alpha_spec="nthroot(939524096,85)",
        claim="count(n) <= C*alpha^n with alpha = (2^27*7)^(1/85) ~ 1.275157, "
              "sharp",
    ),
    Fixture(
        name="perfect_codes",
        description="perfect codes (independent perfect dominating sets)",
        system="perfect_codes.system",
        certificate="perfect_codes.cert",
        direct_count=(3, 7),
        alpha_spec="nthroot(3,7)",
        claim="count(n) <= (2/3)alpha^5 * alpha^n with alpha = 3^(1/7) "
              "~ 1.16993, sharp",
    ),
    Fixture(
        name="min_perfect_dom",
        description="minimal perfect dominating sets",
        system="min_perfect_dom.system",
        certificate="min_perfect_dom.cert",
        gadget="min_perfect_dom.gadget",
        gadget_size=1,
        alpha_spec="root(x^3-x-1,1,2)",
        claim="count(n) <= C*alpha^n with alpha ~ 1.32472 the real root of "
              "x^3-x-1, sharp even for paths",
    ),
    Fixture(
        name="matchings3",
        description="3-matchings (edge sets pairwise at distance >= 3)",
        system="matchings3.system",
        certificate="matchings3.cert",
        alpha_spec="root(x^4-x^3-1,1,2)",
        claim="count(n) <= C*alpha^n with alpha ~ 1.3802 the real root of "
              "x^4-x^3-1; paths achieve this rate",
    ),
    Fixture(
        name="matchings4",
        description="4-matchings",
        system="matchings4.system",
        certificate="matchings4.cert",
        alpha_spec="nthroot(13,9)",
        search_seed_file="matchings4.cert",
        claim="count(n) <= C*13^(n/9), 13^(1/9) ~ 1.329754, sharp; "
              "paths do not maximize",
    ),
    Fixture(
        name="matchings5",
        description="5-matchings",
        system="matchings5.system",
        gadget="matchings5.gadget",
        gadget_size=45,
        alpha_spec="22/17",
        claim="count(n) <= C*(22/17)^n and a 45-vertex periodic block gives "
              "a lower-bound rate ~ 1.293211; paths do not maximize",
        slow_search=True,
    ),
    Fixture(
        name="max_matchings",
        description="maximal matchings",
        system="max_matchings.system",
        certificate="max_matchings.cert",
        alpha_spec="root(x^14-11x^7+9,1,2)",
        claim="count(n) <= C*alpha^n with alpha^7 = (11+sqrt(85))/2, "
              "alpha ~ 1.391664, sharp (maximum matchings attain it)",
        search_seed_file="max_matchings.cert",
    ),
    Fixture(
        name="max_induced_matchings",
        description="maximal induced matchings",
        system="max_induced_matchings.system",
        gadget="max_induced_matchings.gadget",
        gadget_size=8,
        alpha_spec="4254960628685/3195429966304",
        claim="upper rate 4254960628685/3195429966304 and lower rate beta "
              "with beta^8 the dominant root of an order-5 recurrence differ "
              "by less than 7e-26",
        slow_search=True,
    ),
    Fixture(
        name="max_irredundant",
        description="maximal irredundant sets",
        system="max_irredundant.system",
        direct_count=(48, 9),
        alpha_spec="14/9",
        claim="count rate between 48^(1/9) ~ 1.53746 and 14/9 ~ 1.555556; "
              "the 14/9 certificate search runs for hours (393 vectors)",
        slow_search=True,
    ),
)

BY_NAME = {f.name: f for f in FIXTURES}


def data_path(filename: str):
    return resources.files(__package__) / "data" / filename
