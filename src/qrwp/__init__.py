"""Quantum real weighted projective spaces.

Exact normal-form computations in a q-deformed coordinate *-algebra
with a central unitary, the integer grading of its weighted circle
coactions, generators and relations of the degree-zero subalgebras,
weighted-shift representations, and the K-theory of the
associated C*-algebras via coisometry index maps.
"""

from .qlaurent import ONE, ZERO, LaurentPoly, qpow
from .sigma3 import (
    IDENTITY_MONOMIAL,
    XI,
    XIS,
    Z0,
    Z0S,
    Z1,
    Z1S,
    AlgebraElement,
    NormalMonomial,
    powers_oracle,
    star,
)
from .grading import (
    Weights,
    coinvariant_part,
    degree,
    element_degrees,
    is_coinvariant,
)
from .qwrp import (
    GeneratorSet,
    GeneratorWord,
    RelationReport,
    degree_zero_monomials,
    enumerate_word_monomials,
    factorization_sweep,
    factorize,
    factorize_with_conjugates,
    generators,
    relations_for,
    verify_relations,
    word_element,
)
from .fockrep import (
    RepReport,
    WeightedShift,
    intertwiner_check,
    rep_generator,
    rep_report,
)
from .ktheory import (
    GroupDescriptor,
    IndexMap,
    KGroups,
    assemble_kgroups,
    expected_kgroups,
    index_map,
    ktheory_report,
    pullback_check,
)
from .parser import ParseError, lower_text, render

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "qpow", "ZERO", "ONE",
    "NormalMonomial", "AlgebraElement", "IDENTITY_MONOMIAL",
    "Z0", "Z0S", "Z1", "Z1S", "XI", "XIS",
    "star", "powers_oracle",
    "Weights", "degree", "element_degrees",
    "coinvariant_part", "is_coinvariant",
    "GeneratorSet", "GeneratorWord", "RelationReport",
    "generators", "relations_for", "verify_relations",
    "factorize", "factorize_with_conjugates", "word_element",
    "degree_zero_monomials", "enumerate_word_monomials", "factorization_sweep",
    "RepReport", "WeightedShift",
    "rep_generator", "intertwiner_check", "rep_report",
    "GroupDescriptor", "IndexMap", "KGroups",
    "index_map", "assemble_kgroups",
    "expected_kgroups", "pullback_check",
    "ktheory_report",
    "lower_text", "render", "ParseError",
]
