"""Census of immersed totally geodesic surfaces in Bianchi orbifolds.

Exact arithmetic end to end: class groups and admissibility, circle
pullbacks, quaternion orders with dual-route local data, rational areas,
and the counting asymptotics with certified Euler-product constants.
"""

from .census import (
    ConstantReport,
    ConstantValue,
    SurfaceRecord,
    constant_C,
    count_F_in_progression,
    enumerate_surfaces,
    F_value,
    fit_report,
    leading_constant,
    residue_constant_check,
    xi,
)
from .classgroup import (
    AdmissibilityResult,
    ClassGroupStructure,
    QuadraticForm,
    class_group,
    compose,
    is_admissible,
    reduced_forms,
)
from .hermitian import (
    HermitianCircle,
    SurfaceIndex,
    pullback_circle,
    sigma_r,
    surface_invariants,
)
from .ntkernel import QuadraticCharacter, character, factorize, is_prime, legendre
from .quatorder import (
    QuaternionOrder,
    build_order,
    eichler_symbol_bruteforce,
    eichler_symbol_closed,
    nrd_index,
    nrd_index_bruteforce,
    reduced_discriminant,
)
from .volume import ExactArea, area_closed_form, area_via_order, compare_to_threshold

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityResult",
    "ClassGroupStructure",
    "ConstantReport",
    "ConstantValue",
    "ExactArea",
    "F_value",
    "HermitianCircle",
    "QuadraticCharacter",
    "QuadraticForm",
    "QuaternionOrder",
    "SurfaceIndex",
    "SurfaceRecord",
    "area_closed_form",
    "area_via_order",
    "build_order",
    "character",
    "class_group",
    "compare_to_threshold",
    "compose",
    "constant_C",
    "count_F_in_progression",
    "eichler_symbol_bruteforce",
    "eichler_symbol_closed",
    "enumerate_surfaces",
    "factorize",
    "fit_report",
    "is_admissible",
    "is_prime",
    "leading_constant",
    "legendre",
    "nrd_index",
    "nrd_index_bruteforce",
    "pullback_circle",
    "reduced_discriminant",
    "reduced_forms",
    "residue_constant_check",
    "sigma_r",
    "surface_invariants",
    "xi",
    "__version__",
]
