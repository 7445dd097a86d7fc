"""One guarded-action spec module per hand-written arena protocol.

Each module defines a single ``SPEC`` constant.  A protocol derived by
feature projection (``wi``, see :data:`repro.spec.registry.DERIVED`) has
no module here.  The modules import
:mod:`repro.spec.lang` absolutely so that :func:`repro.spec.registry.
load_spec_tree` can ``exec`` them out of an *analyzed* source tree (the
lint mutation tests copy trees around) while still resolving the IR
classes from the installed package.
"""
