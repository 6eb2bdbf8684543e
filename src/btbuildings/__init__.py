"""Exact computations on Bruhat-Tits buildings of SL_{d+1} over
non-Archimedean local fields, their products, and rigid points of
products of Drinfeld spaces."""

from .field import (ExtensionDescriptor, FieldElement, LaurentModel,
                    PAdicModel, embed, enumerate_residues, valuation)
from .lattice import (VertexClass, action, canonical_form, dual,
                      gaussian_binomial, neighbors_by_colength)
from .building import (ApartmentPoint, BuildingDescriptor, PolyFace,
                       PolyVertex, act, ball, basic_chamber, distance_f,
                       involution_lambda, is_face, labelling_C, labelling_D,
                       project_apartment, sigma_mu)
from .subdivision import (AlcoveChart, Marking, delta_restrict, eta_chambers,
                          nu_embed, subdivide_ball, verify_induced_structure)
from .autdecomp import (AutWord, HomDecomposition, ProductGraph,
                        decompose_hom, label_action, normal_form)
from .drinfeld import (AbsValue, GaussSeminorm, Poly, RigidPoint, deform,
                       diagonalize_norm, dual_coords, eval_abs, gauss_eval,
                       omega_membership, tau_coordinates)

__version__ = "0.1.0"
