"""Privacy-preserving multi-party dual learning, desk scale.

Two data-holding parties train mutually inverse generative models over
their co-occurring samples and use them to complete one another's
missing features, while a collaborator trains a classifier split
across all three sites.  Feature-level Laplace noise bounds what the
exchanged values reveal, and cross-party gradient corrections travel
under additively homomorphic encryption.

The package root exports nothing: import each name from its module,
for example ``from mpdl.orchestrator import mpdl_train``.
"""
