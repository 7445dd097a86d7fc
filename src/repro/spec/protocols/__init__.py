"""Guarded-action spec modules: one per hand-written encoding.

Each module defines a single ``SPEC`` constant.  ``adaptive.py`` is a
:class:`~repro.spec.lang.ProtocolSpec` and the only encoding of the
invalidate backbone; a protocol derived by feature projection (``wi``,
``mesi``, see :data:`repro.spec.registry.DERIVED`) has no module here.
``dragon.py`` is an :class:`~repro.spec.lang.Extension`: only what
Dragon adds to ``wi``, which the registry composes onto it.  The modules
import :mod:`repro.spec.lang` absolutely so that
:func:`repro.spec.registry.load_spec_tree` can ``exec`` them out of an
*analyzed* source tree (the lint mutation tests copy trees around)
while still resolving the IR classes from the installed package.
"""
