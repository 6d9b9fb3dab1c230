# Pins the protocol listing: `nrn_sim protocols` must print
# tests/golden/nrn_sim_protocols.txt byte for byte -- every registered
# name, capability set, bound flag and description.
#
#   cmake -DNRN_SIM=path/to/nrn_sim \
#         -DGOLDEN=tests/golden/nrn_sim_protocols.txt \
#         -P tests/nrn_sim_protocols_golden.cmake
#
# After an intentional change to the registry, regenerate the golden with
# `nrn_sim protocols > tests/golden/nrn_sim_protocols.txt`.
execute_process(COMMAND ${NRN_SIM} protocols
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "nrn_sim protocols: exit ${code}\n${err}")
endif()
file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR "nrn_sim protocols differs from ${GOLDEN}; it printed:\n"
                      "${out}")
endif()
