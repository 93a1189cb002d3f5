"""Mean-field variational inference for models with a nonconjugate real
latent variable, via Laplace or delta-method updates of its Gaussian factor.

Ships three model families on one engine: a Dirichlet-multinomial unigram
model with log-normal rates, a correlated topic model with variational EM,
and flat or hierarchically tied Bayesian logistic regression.  The package
exposes its library modules, each loaded on first use; the command line is
`ncvi.cli`, which `python -m ncvi.cli` runs.
"""

import importlib

__all__ = ["blr", "ctm", "dataio", "engine", "evaluate", "model", "numerics", "optimize",
           "unigram"]

__version__ = "0.1.0"


def __getattr__(name):
    # each library module loads on first use, so a command pays for its own
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
