"""Start-up hook for the benchmark's traced run.

The traced run puts this directory first on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR``; Python then imports this module at start-up in
the CLI process and in every sweep worker it spawns, so both sides of
the sweep service record spans without any change to the program.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import benchtrace

    benchtrace.install(os.environ["PERFBENCH_TRACE_DIR"])
