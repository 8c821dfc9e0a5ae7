"""Workbench for partial Horn theories over finite structures.

Parse multi-sorted partial Horn theories, evaluate them on finite partial
structures, search homomorphisms and sections, condense model families
into component posets, run the product/closed-substructure/local-retract
closure operators, and reproduce a table of component counts and chain
counterexamples from the shipped corpus.
"""

from .closure import (
    ModelClass,
    ModelUniverse,
    class_of,
    closure_Hloc,
    closure_P,
    closure_Sc,
    definable_class,
    embeds_in_product,
    enumerate_models,
    hsp_closure,
    operator_law_report,
    product_embedding_closure,
    check_theory_morphism_bounded,
)
from .corpus import (
    get_chain,
    get_group,
    get_morphism,
    get_theory,
    list_corpus,
)
from .homsearch import (
    enumerate_homs,
    find_hom,
    hom_exists,
    iter_homs,
    local_retraction_check,
)
from .parser import parse_sequents, parse_theory
from .sigma import (
    acc_probe,
    build_hom_quiver,
    condense_sigma,
    gset_sigma_check,
    lower_set_lattice,
    poset_iso,
    sigma_of_structures,
    subgroup_category,
    verify_fam_theorem,
)
from .structures import (
    Homomorphism,
    PartialStructure,
    chain_colimit,
    eval_term,
    is_closed_mono,
    is_model,
    make_structure,
    product,
    pullback,
    reduct,
)
from .syntax import (
    ParseError,
    PhlError,
    Sequent,
    Signature,
    Theory,
    TheoryMorphism,
    ValidationError,
    print_sequent,
    print_theory,
    validate_theory,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
