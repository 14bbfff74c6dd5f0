"""Optimal-transport recommendation for item cold start.

Preference histograms over interacted items are pushed onto unseen
items through entropy-smoothed optimal transport, either directly
(one closed-form inference per user) or through a low-rank coupled
factorization trained by dual block-coordinate descent.

The package namespace is lazy (PEP 562): importing ``wassrec`` loads
none of its modules, and reading a public name, or a module by its
name, imports the module that defines it.  ``wassrec.__all__`` is the
modules' own ``__all__`` lists in the order of ``_MODULES``, then
``__version__``; reading it, ``dir(wassrec)`` or ``import *`` loads
all six.  So ``python -m wassrec.cli`` compiles and runs only the
modules its stage uses.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("exceptions", "transport", "wfilter", "wcf", "dataio", "metrics")


def _module(name):
    return importlib.import_module("." + name, __name__)


def __getattr__(name):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return [*(attr for mod in _MODULES for attr in _module(mod).__all__), "__version__"]
    for mod in _MODULES:
        module = _module(mod)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
