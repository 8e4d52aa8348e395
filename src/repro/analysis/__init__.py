"""The runtime lock witness, :mod:`repro.analysis.lockwitness`.

Every lock the runtime holds in a ``with`` is created through
``lockwitness.named_lock``.  While the test suite runs, the witness fails
the session on a named lock acquired while another is held, on a
blocking primitive called under a named lock through any call chain,
and on an over-budget hold.  Outside the suite ``named_lock`` returns a
plain ``threading.Lock`` and nothing is wrapped.
"""

__all__: list[str] = []
