"""Bound methods that hold their object weakly.

A machine's components call back into their owner (a DDT's SavePage
handler into the kernel, the kernel's snapshot provider into the
machine), and a functional engine keeps its own bound methods where
adapters can swap them.  Wiring either through :func:`weak_method`
closes no reference cycle, so a dropped machine or engine is freed by
reference counting.
"""

import inspect
import weakref

#: Code flags of a function that takes ``*args`` or ``**kwargs``.
_VARIADIC = inspect.CO_VARARGS | inspect.CO_VARKEYWORDS


def weak_method(method):
    """The bound *method* as a callable that holds its object weakly.

    Like a bound method, the callable's ``__func__`` is the method's
    function, so an owner can tell its own method from a shadow.  A
    method that takes no arguments (``FuncSim.step``, called once per
    instruction by a stepping caller) gets a closure that forwards
    none, which costs about a third of the general one per call.  The
    function's code object tells the two apart: ``self`` alone is one
    positional argument, no keyword-only ones and no ``*args`` or
    ``**kwargs``.
    """
    func = method.__func__
    ref = weakref.ref(method.__self__)
    code = func.__code__

    if (code.co_argcount > 1 or code.co_kwonlyargcount
            or code.co_flags & _VARIADIC):
        def call(*args, **kwargs):
            return func(ref(), *args, **kwargs)
    else:
        def call():
            return func(ref())

    call.__func__ = func
    return call
