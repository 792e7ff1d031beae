"""quon2d: the two-dimensional Quon diagrammatic language.

A Majorana-worldline intermediate representation with a value-preserving
rewriting calculus, exact (Fock) and polynomial-time (Gaussian/Pfaffian)
evaluators, compilers between qubit circuits / elementary tensors and Quon
diagrams, structural Clifford/matchgate classifiers, tractability-controlled
network factories, and Ising-model applications (partition functions, the
Kramers-Wannier rewrite chain, the star-triangle solver).
"""

__version__ = "0.1.0"

from .diagram import (
    BraidNeg,
    BraidPos,
    Cap,
    Cup,
    Dot,
    DotPair,
    MajoranaDiagram,
    Scattering,
    ScatteringStar,
    compose,
    dagger,
    is_generic_angle,
    tensor_product,
)
from .fock import FockState, evaluate_closed_oracle
from .gaussian import evaluate_closed_fast, pfaffian
from .quon import (
    BasisAssignment,
    OpenInterval,
    ParityCut,
    QuonDiagram,
    encode_basis,
    evaluate_closed_quon,
    string_genus,
    swap_hole_remove,
)
from .rewrite import (
    RewriteSite,
    apply_rule,
    expand_scattering,
    solve_yang_baxter,
    spacetime_dual,
)
from .circuits import Circuit, Gate, circuit_oracle_unitary
from .compiler import (
    DenseTensor,
    circuit_amplitude,
    compile_circuit,
    compile_generator_tensor,
    contract_legs,
    quon_to_dense_tensor,
)
from .classify import (
    ClassReport,
    MatchgateGate,
    classify,
    clifford_matchgate_decompose,
    decompose_gab,
    matchgate_identity_residual,
)
from .factory import (
    FactoryLedger,
    Insert,
    Stretch,
    Switch,
    insert_move,
    stretch,
    switch_move,
)
from .ising import (
    IsingLattice,
    StarTriangleSolution,
    build_ising_quon,
    kw_dual_coupling,
    kw_rewrite_chain,
    kw_self_dual_point,
    partition_oracle,
    star_triangle_oracle,
    star_triangle_solve,
)
from .serialize import emit_dot, parse_diagram, serialize_diagram
