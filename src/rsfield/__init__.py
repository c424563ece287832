"""Reduced-field dynamics of bosonic modes.

Subpackages:

* ``numerics``   -- dense complex linear algebra, matrix exponentials,
                    Magnus propagation
* ``symplectic`` -- Bogoliubov maps and classicality predicates
* ``rsf``        -- reduced/conjugate/generalized fields and entropies
* ``kinetics``   -- reduced kinetic equations and generator extraction
* ``casimir``    -- photon production in a moving medium
* ``amplifier``  -- closed-form Gaussian amplification benchmarks
* ``fock``       -- truncated Fock-space brute-force oracle
* ``cli``        -- scenario runner (``rsfield`` console script)
"""

from . import amplifier, casimir, errors, fock, kinetics, numerics, rsf, symplectic
from .amplifier import AmplifierSpec, amplified_rsf, amplifier_bogoliubov, amplifier_generators
from .casimir import (
    CasimirScenario,
    ModeSolution,
    VelocityProfile,
    auto_sigma,
    casimir_generators_extracted,
    casimir_map,
    casimir_maps,
    closed_form_generators,
    extracted_generators,
    floquet_exponent,
    growth_law_error,
    growth_law_residual,
    solve_modes,
)
from .kinetics import (
    KineticGenerators,
    extract_closed_generator,
    extract_open_generators,
    integrate_kinetics,
    kinetic_rhs,
    validity_report,
)
from .rsf import (
    ConjugateField,
    GeneralizedField,
    ReducedField,
    entropy_v,
    entropy_w,
    expect_additive,
    expect_linear,
    from_state_moments,
    reduce_to_system,
    transform_closed,
    transform_generalized,
    transform_open_vacuum_env,
    vacuum,
)
from .symplectic import (
    BogoliubovMap,
    classicality,
    compose,
    from_blocks,
    identity_map,
    is_classical_closed,
    is_classical_open,
)

__version__ = "0.1.0"
