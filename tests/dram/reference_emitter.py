"""The kernels' run-by-run emitter, kept as a differential oracle.

A kernel used to turn its program (``repro.pim.stream``) into controller
calls itself — per run a barrier's fence, one ``mc.write`` / ``mc.read``
of the whole run, the fence after it — and then drain.  The controller now
takes the program whole (``MemoryController.drain(program, blocks)``) and
issues runs that are alone in their epochs without queueing them; this
loop is the queue path it must equal, command for command.  Nothing under
``src/`` imports it.
"""


def enqueue_program(mc, program, blocks):
    """Queue ``program`` on ``mc`` run by run, then drain; the WR runs
    index ``blocks``.  Returns the drain's result."""
    for write, row, col, count, fence, operand, barrier, bank in program:
        if barrier:
            mc.fence()
        if write:
            mc.write(bank // 4, bank % 4, row, col, blocks[operand], count=count)
        else:
            mc.read(bank // 4, bank % 4, row, col, count=count)
        if fence:
            mc.fence()
    return mc.drain()
