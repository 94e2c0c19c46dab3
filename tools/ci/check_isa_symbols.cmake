# Checks the ISA translation units' ODR rule (src/util/kernels.hpp) on the
# built library archive: the members compiled with raised ISA flags
# (kernels_avx2, kernels_avx512, kernels_neon) must define no weak or COMDAT
# symbol (nm types W, V and u), apart from the exception-personality
# reference every C++ object with unwind tables carries.  Such a symbol is an
# inline function or template instantiated out of line under, say,
# -mavx512f; the linker keeps one copy of it for the whole program, so
# baseline code may call the AVX-512 copy and trap on a host without it.
# GCC emits these copies mostly at -O0, so a Debug build is the strict run.
#
#   cmake -DNM=<nm> -DARCHIVE=<libhdlock.a> -P check_isa_symbols.cmake
#
# Prints "SKIP: no nm found" and exits 0 when NM is not a usable program.

cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT EXISTS "${NM}")
  message("SKIP: no nm found (CMAKE_NM='${NM}'); the ISA symbol check needs one")
  return()
endif()

# POSIX format with the file name: "<archive>[<member>]: <name> <type> ...".
execute_process(COMMAND "${NM}" -A -P "${ARCHIVE}"
                OUTPUT_VARIABLE listing
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${ARCHIVE} (${status}): ${errors}")
endif()

set(members kernels_avx2.cpp.o kernels_avx512.cpp.o kernels_neon.cpp.o)
set(seen "")
set(violations "")
string(REPLACE "\n" ";" lines "${listing}")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "\\[(kernels_(avx2|avx512|neon)\\.cpp\\.o)\\]: ([^ ]+) ([A-Za-z?])")
    continue()
  endif()
  set(member "${CMAKE_MATCH_1}")
  set(symbol "${CMAKE_MATCH_3}")
  set(type "${CMAKE_MATCH_4}")
  list(APPEND seen "${member}")
  if(type MATCHES "^[WVu]$" AND NOT symbol STREQUAL "DW.ref.__gxx_personality_v0")
    list(APPEND violations "${member}: ${type} ${symbol}")
  endif()
endforeach()

# Every ISA member is in the archive, even where it compiles to the stub, so
# a missing one means the listing was not parsed and the check saw nothing.
foreach(member IN LISTS members)
  if(NOT member IN_LIST seen)
    message(FATAL_ERROR "no symbols listed for ${member} in ${ARCHIVE}")
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "weak or COMDAT symbols in ISA translation units "
                      "(give them internal linkage; no std:: function templates "
                      "there):\n  ${report}")
endif()
message("ISA translation units define no weak or COMDAT symbol")
