-- A forked thread hands a value to main through an MVar: main blocks
-- on takeMVar until the child's putMVar fills it.
-- Run with: dune exec bin/main.exe -- run examples/programs/fork_mvar.hs

main = newEmptyMVar >>= \m ->
       forkIO (putMVar m 41) >>= \u ->
       takeMVar m >>= \x ->
       putInt (x + 1);
