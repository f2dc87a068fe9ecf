"""Bootstrapping the configuration connections themselves (Figure 9).

Before the centralized configuration module can open data connections over
the NoC, its own configuration connections to the CNIPs of the remote NIs
must exist.  :func:`bootstrap_configuration_connection` performs steps 1 and
2 of Figure 9 for one remote NI: step 1 programs the request channel by
writing the *local* NI's registers directly through the configuration shell;
step 2 then uses that channel to program the response channel by sending
write messages over the NoC, the last one requesting an acknowledgement.
The declarative :class:`~repro.api.builder.SystemBuilder` calls it for every
CNIP of a centrally configured system.
"""

from __future__ import annotations

from repro.core.kernel import NIKernel
from repro.core.registers import (
    REG_CTRL,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    channel_register_address,
    encode_ctrl,
    encode_path,
)
from repro.core.shells.config_shell import ConfigShell


def bootstrap_configuration_connection(config_shell: ConfigShell,
                                       noc, local_kernel: NIKernel,
                                       local_channel: int,
                                       remote_name: str,
                                       remote_kernel: NIKernel,
                                       remote_channel: int) -> int:
    """Open the configuration connection itself (Figure 9, steps 1 and 2).

    Returns the number of configuration operations issued.
    """
    local_name = local_kernel.name
    remote_dest_words = remote_kernel.channel(remote_channel).dest_queue.capacity
    local_dest_words = local_kernel.channel(local_channel).dest_queue.capacity

    operations = 0
    # Step 1: request channel, written locally ("wr path, rqid / wr space /
    # wr be, enable" in Figure 9).
    step1 = [
        (channel_register_address(local_channel, REG_PATH),
         encode_path(noc.route(local_name, remote_name))),
        (channel_register_address(local_channel, REG_REMOTE_QID),
         remote_channel),
        (channel_register_address(local_channel, REG_SPACE),
         remote_dest_words),
        (channel_register_address(local_channel, REG_CTRL),
         encode_ctrl(True, False)),
    ]
    for address, value in step1:
        config_shell.write(local_name, address, value)
        operations += 1

    # Step 2: response channel, written at the remote NI via the NoC.
    step2 = [
        (channel_register_address(remote_channel, REG_PATH),
         encode_path(noc.route(remote_name, local_name))),
        (channel_register_address(remote_channel, REG_REMOTE_QID),
         local_channel),
        (channel_register_address(remote_channel, REG_SPACE),
         local_dest_words),
        (channel_register_address(remote_channel, REG_CTRL),
         encode_ctrl(True, False)),
    ]
    for position, (address, value) in enumerate(step2):
        acknowledged = position == len(step2) - 1
        config_shell.write(remote_name, address, value,
                           acknowledged=acknowledged)
        operations += 1
    return operations
