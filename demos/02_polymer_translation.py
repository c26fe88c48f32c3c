"""
From Holant sums to polymer models
==================================

The Holant sum over edge colourings factors into a trivial prefactor
(every edge coloured 0) times a polymer partition function whose polymers
are connected sets of non-zero-coloured edges.  This script builds the
polymer pool for a small instance and checks the identity numerically.
"""

from holant import (
    MultiGraph,
    brute_holant,
    brute_polymer_z,
    uniform_assignment,
)
from holant.graph import mask_vertices
from holant.oracle import enumerate_polymers, weight_map
from holant.polymers import holant_prefactor

G = MultiGraph.from_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
assign = uniform_assignment(G, "even-parity", weight=0.2)
z = (1.0, 0.3)

# polymers: connected edge sets, one colour in {1..kappa} per edge
pols = enumerate_polymers(G, assign.kappa, G.edge_count)
print("coloured polymers on C4:", len(pols))
for p in pols[:4]:
    print("  polymer", p.edges, "colours", p.colours, "vertices", mask_vertices(p.vmask))

# each polymer weight divides out the vertex scores of the empty colouring
wm = weight_map(G, assign, z, pols)
some = pols[0]
print("weight of", some.edges, "=", wm[some])

# identity: Z_holant = prefactor * Z_polymer
exact = brute_holant(G, assign, z).value
translated = holant_prefactor(G, assign, z) * brute_polymer_z(pols, wm)
print("\nbrute Holant:      ", exact)
print("prefactor * Z_poly:", translated)
print("difference:        ", abs(exact - translated))
