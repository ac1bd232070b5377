"""The CLI's commands, one module each, which ``ptstack.cli`` imports only
when it runs that command; :mod:`.common`, which the front end and every
command share; and :mod:`.forked`, the fork helper of the two commands that
spread their work over the CPUs, ``sweep`` and ``oracle-check``.

Command ``name`` is ``cmd_<name>`` in module ``<name>``, with ``-`` read as
``_``.  It takes the resolved options and the names left at their default,
and returns (rows as text, summary, extra metadata, exit code).  The rows
are one string, or the files a sweep rendered its N ranges into, which the
front end closes once written or on failure.

No module here imports ``ptstack.cli``: under ``python -m ptstack.cli`` the
front end runs as ``__main__``, and such an import would compile and run it
a second time as a separate module.
"""
