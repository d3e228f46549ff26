"""Matrix-free spectral density estimation for large symmetric operators,
with a numpy neural-net module exposing the loss Hessian and its
outer-product/functional split for curvature analysis."""

__version__ = "0.1.0"
