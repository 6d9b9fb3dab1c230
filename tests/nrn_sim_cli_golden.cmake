# Pins nrn_sim's command-line contract: for each argv case below, the exit
# code and the first stderr line (the whole stderr for --help), plus
# `nrn_sim topologies` stdout, compared byte for byte with one transcript.
#
#   cmake -DNRN_SIM=path/to/nrn_sim \
#         -DGOLDEN=tests/golden/nrn_sim_cli.txt \
#         -DWORK_DIR=path/to/empty/scratch/dir \
#         -P tests/nrn_sim_cli_golden.cmake
#
# Every case runs inside WORK_DIR (wiped first) and names only relative
# paths, so the transcript does not depend on where the build lives.
# After an intentional change to a message or a listing, regenerate the
# golden by adding -DUPDATE=ON and review the diff.
get_filename_component(NRN_SIM ${NRN_SIM} ABSOLUTE)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
# A regular file: `file/sub` is a directory nobody can create.
file(WRITE ${WORK_DIR}/file "")

set(transcript "")

# cli_case(MODE ARGS...) runs `nrn_sim ARGS...` and appends the argv, the
# exit code and, by MODE:
#   FIRST   the first stderr line
#   OS      the first stderr line, its trailing OS error text masked (that
#           text follows the process locale's LC_MESSAGES)
#   STDERR  the whole stderr
#   STDOUT  the whole stdout
# Write a ';' inside one argument as '\;'.
function(cli_case mode)
  execute_process(COMMAND ${NRN_SIM} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  TIMEOUT 60
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(shown "$ nrn_sim")
  foreach(arg IN LISTS ARGN)
    string(APPEND shown " ${arg}")
  endforeach()
  if(mode STREQUAL "STDOUT")
    set(body "${out}")
  elseif(mode STREQUAL "STDERR")
    set(body "${err}")
  else()
    string(FIND "${err}" "\n" eol)
    if(eol GREATER -1)
      string(SUBSTRING "${err}" 0 ${eol} err)
    endif()
    if(mode STREQUAL "OS")
      string(REGEX REPLACE ": [^:']*$" ": <os error>" err "${err}")
    endif()
    set(body "${err}\n")
  endif()
  set(transcript "${transcript}${shown}\nexit ${code}\n${body}" PARENT_SCOPE)
endfunction()

# ---------------------------------------------------------------- single run
cli_case(STDERR --help)
cli_case(FIRST --bogus)
cli_case(FIRST --k=abc)
cli_case(FIRST --k=0)
cli_case(FIRST --trials=0)
cli_case(FIRST --threads=0)
cli_case(FIRST --source=-1)
cli_case(FIRST --seed=-1)
cli_case(FIRST --topology=gnp:64:bogus)
# Sizes the grammar must reject before a generator sees them.
cli_case(FIRST --topology=gnp:1:0.5)
cli_case(FIRST --topology=wct:32)
cli_case(FIRST --algorithm=nosuch)
cli_case(FIRST --topology=path:4 --source=9)
cli_case(FIRST --topology=star:8 --algorithm=transform-routing
         --fault=receiver:0.3 --k=2)
# erasure-decay's m = k + 4 ceil(log2 nk) + 8 packets must fit GF(256)'s
# 255: on the link m is 255 at k = 211 and 256 at k = 212.
cli_case(FIRST --topology=link --algorithm=erasure-decay --k=212)

# --------------------------------------------------------------------- sweep
cli_case(FIRST sweep --help)
cli_case(FIRST sweep --bogus)
cli_case(FIRST sweep --k=abc)
cli_case(FIRST sweep --threads=0)
cli_case(FIRST sweep --threads=5000)
cli_case(FIRST sweep --cell-threads=0)
cli_case(FIRST sweep --claim-ttl=-1)
cli_case(FIRST sweep --shard=2/2)
cli_case(FIRST sweep --shard=1)
cli_case(FIRST sweep --shard=x/2)
cli_case(FIRST sweep --cache-dir=)
cli_case(FIRST sweep --out=)
cli_case(FIRST sweep --merge=)
cli_case(FIRST sweep --fleet --resume)
cli_case(FIRST sweep)
cli_case(FIRST sweep --merge=a.nrns --shard=0/2)
cli_case(FIRST sweep --plan=x --fleet)
cli_case(FIRST sweep --plan=x --resume --cache-dir=cache --shard=0/2)
cli_case(FIRST sweep "--plan=topology=path:8\; protocols=")
cli_case(FIRST sweep "--plan=topology=path:8\; protocols=nope")
cli_case(FIRST sweep "--plan=topology=wct:32\; protocols=decay")
cli_case(FIRST sweep "--plan=topology=link\; protocols=erasure-decay\; k=212")
cli_case(FIRST sweep --merge=missing.nrns)
cli_case(FIRST sweep "--plan=topology=path:8\; protocols=decay"
         --resume --cache-dir=cold)
# Resume only reads the cache: a missing directory must stay missing.
if(EXISTS ${WORK_DIR}/cold)
  message(FATAL_ERROR "nrn_sim sweep --resume created its cache directory")
endif()
cli_case(OS sweep "--plan=topology=path:8\; protocols=decay"
         --cache-dir=file/sub)

# --------------------------------------------------------------------- serve
cli_case(FIRST serve --bogus)
cli_case(FIRST serve --threads=0)
cli_case(FIRST serve --threads=5000)
cli_case(FIRST serve --cell-threads=5000)
cli_case(FIRST serve --claim-ttl=-1)
cli_case(FIRST serve --tcp-port=70000)
cli_case(FIRST serve --tcp-port=abc)
cli_case(FIRST serve --socket=)
cli_case(FIRST serve --socket=serve.sock)
cli_case(FIRST serve --cache-dir=cache)
cli_case(OS serve --socket=serve.sock --cache-dir=file/sub)
# The daemon's listener was bound before the cache failed: unwinding must
# have removed its socket file.
if(EXISTS ${WORK_DIR}/serve.sock)
  message(FATAL_ERROR "nrn_sim serve left serve.sock behind")
endif()

# ------------------------------------------------------------------- clients
cli_case(FIRST submit --bogus)
cli_case(FIRST submit --socket=serve.sock)
cli_case(FIRST submit --plan=x)
cli_case(FIRST status --plan=x)
cli_case(FIRST status --bogus)
cli_case(FIRST shutdown --bogus)
cli_case(FIRST status --tcp-port=0)
cli_case(FIRST status --tcp-port=70000)
cli_case(FIRST status --tcp-port=abc)
cli_case(FIRST shutdown)
cli_case(OS status --socket=nosuch.sock)

# ------------------------------------------------------------------ listings
cli_case(STDOUT topologies)

if(UPDATE)
  file(WRITE ${GOLDEN} "${transcript}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} golden)
if(NOT transcript STREQUAL golden)
  file(WRITE ${WORK_DIR}/actual.txt "${transcript}")
  message(FATAL_ERROR "nrn_sim's CLI transcript differs from ${GOLDEN}; "
                      "diff it against ${WORK_DIR}/actual.txt")
endif()
